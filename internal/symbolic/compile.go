package symbolic

import (
	"fmt"
	"math"
	"sort"
)

// Program is a set of expressions lowered to a flat register machine for
// batched evaluation. Common subexpressions across all compiled expressions
// are evaluated once per frame. This is the execution form behind the
// paper's "batched value substitution" (§5.2.1): one symbolic simulation
// pass produces the expressions, and every candidate configuration after
// that costs only a linear pass over the instruction tape.
type Program struct {
	vars    []string // symbol order; frame values are positional
	varIdx  map[string]int
	insts   []inst
	outputs []int // register index per compiled expression
	numRegs int
}

type instOp uint8

const (
	iConst instOp = iota
	iLoad
	iAdd
	iMul
	iDiv
	iCeil
	iFloor
	iMax
	iMin
)

type inst struct {
	op   instOp
	dst  int
	val  float64 // iConst payload
	src  int     // iLoad: var index; unary ops: operand register
	args []int   // n-ary operand registers
}

// Compile lowers exprs into a Program over the given symbol order. Every
// free variable of every expression must appear in vars.
func Compile(exprs []*Expr, vars []string) (*Program, error) {
	p := &Program{
		vars:   append([]string(nil), vars...),
		varIdx: make(map[string]int, len(vars)),
	}
	for i, v := range vars {
		if _, dup := p.varIdx[v]; dup {
			return nil, fmt.Errorf("symbolic: duplicate variable %q", v)
		}
		p.varIdx[v] = i
	}
	cache := map[*Expr]int{}       // node identity cache
	structural := map[string]int{} // structural CSE cache
	for _, e := range exprs {
		reg, err := p.lower(e, cache, structural)
		if err != nil {
			return nil, err
		}
		p.outputs = append(p.outputs, reg)
	}
	return p, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(exprs []*Expr, vars []string) *Program {
	p, err := Compile(exprs, vars)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Program) lower(e *Expr, cache map[*Expr]int, structural map[string]int) (int, error) {
	if reg, ok := cache[e]; ok {
		return reg, nil
	}
	key := e.String()
	if reg, ok := structural[key]; ok {
		cache[e] = reg
		return reg, nil
	}
	var in inst
	switch e.op {
	case OpConst:
		in = inst{op: iConst, val: e.val}
	case OpVar:
		idx, ok := p.varIdx[e.name]
		if !ok {
			return 0, fmt.Errorf("symbolic: compile: unbound symbol %q", e.name)
		}
		in = inst{op: iLoad, src: idx}
	default:
		args := make([]int, len(e.args))
		for i, a := range e.args {
			reg, err := p.lower(a, cache, structural)
			if err != nil {
				return 0, err
			}
			args[i] = reg
		}
		switch e.op {
		case OpAdd:
			in = inst{op: iAdd, args: args}
		case OpMul:
			in = inst{op: iMul, args: args}
		case OpDiv:
			in = inst{op: iDiv, args: args}
		case OpCeil:
			in = inst{op: iCeil, src: args[0]}
		case OpFloor:
			in = inst{op: iFloor, src: args[0]}
		case OpMax:
			in = inst{op: iMax, args: args}
		case OpMin:
			in = inst{op: iMin, args: args}
		default:
			return 0, fmt.Errorf("symbolic: compile: unknown op %v", e.op)
		}
	}
	in.dst = p.numRegs
	p.numRegs++
	p.insts = append(p.insts, in)
	cache[e] = in.dst
	structural[key] = in.dst
	return in.dst, nil
}

// NumOutputs returns the number of compiled expressions.
func (p *Program) NumOutputs() int { return len(p.outputs) }

// Vars returns the positional symbol order expected by EvalFrame and
// EvalColumns.
func (p *Program) Vars() []string { return append([]string(nil), p.vars...) }

// EvalFrame evaluates all compiled expressions for one configuration frame.
// frame must be positional per Vars(). out, if non-nil and large enough, is
// reused; the slice of output values is returned.
func (p *Program) EvalFrame(frame []float64, regs, out []float64) []float64 {
	if len(frame) != len(p.vars) {
		panic(fmt.Sprintf("symbolic: frame has %d values, want %d", len(frame), len(p.vars)))
	}
	if cap(regs) < p.numRegs {
		regs = make([]float64, p.numRegs)
	}
	regs = regs[:p.numRegs]
	for i := range p.insts {
		in := &p.insts[i]
		switch in.op {
		case iConst:
			regs[in.dst] = in.val
		case iLoad:
			regs[in.dst] = frame[in.src]
		case iAdd:
			sum := 0.0
			for _, a := range in.args {
				sum += regs[a]
			}
			regs[in.dst] = sum
		case iMul:
			prod := 1.0
			for _, a := range in.args {
				prod *= regs[a]
			}
			regs[in.dst] = prod
		case iDiv:
			regs[in.dst] = regs[in.args[0]] / regs[in.args[1]]
		case iCeil:
			regs[in.dst] = math.Ceil(roundEps(regs[in.src]))
		case iFloor:
			regs[in.dst] = math.Floor(roundEps(regs[in.src]))
		case iMax:
			best := regs[in.args[0]]
			for _, a := range in.args[1:] {
				if v := regs[a]; v > best {
					best = v
				}
			}
			regs[in.dst] = best
		case iMin:
			best := regs[in.args[0]]
			for _, a := range in.args[1:] {
				if v := regs[a]; v < best {
					best = v
				}
			}
			regs[in.dst] = best
		}
	}
	if cap(out) < len(p.outputs) {
		out = make([]float64, len(p.outputs))
	}
	out = out[:len(p.outputs)]
	for i, reg := range p.outputs {
		out[i] = regs[reg]
	}
	return out
}

// ColumnBlock is the number of frames EvalColumns pushes through each
// tape pass. A fixed block bounds the column register file at
// NumRegs()*ColumnBlock values however long the batch is, while still
// amortizing each instruction's dispatch over many frames.
const ColumnBlock = 32

// EvalColumns evaluates all compiled expressions over n frames at once.
// cols holds the frames column-major: variable v of frame j is
// cols[v*n+j]. Output i of frame j is written to out[j*NumOutputs()+i],
// so each frame's outputs form one contiguous row laid out like
// EvalFrame's; out is reused when large enough and returned.
//
// The tape runs once per block of up to ColumnBlock frames. Within a
// block of m frames register r of frame j lives at regs[r*m+j], so every
// instruction is a tight loop over contiguous values. regs is reused
// when it holds ColumnRegs(n) values and allocated otherwise. Each frame's
// outputs equal EvalFrame's bit for bit: every frame sees the same
// operations in the same order.
func (p *Program) EvalColumns(cols []float64, n int, regs, out []float64) []float64 {
	if len(cols) != len(p.vars)*n {
		panic(fmt.Sprintf("symbolic: %d column values for %d frames of %d variables", len(cols), n, len(p.vars)))
	}
	if need := p.ColumnRegs(n); cap(regs) < need {
		regs = make([]float64, need)
	}
	nout := len(p.outputs)
	if cap(out) < nout*n {
		out = make([]float64, nout*n)
	}
	out = out[:nout*n]
	for lo := 0; lo < n; lo += ColumnBlock {
		m := min(n-lo, ColumnBlock)
		p.evalBlock(cols, n, lo, m, regs[:p.numRegs*m])
		for j := 0; j < m; j++ {
			row := out[(lo+j)*nout : (lo+j+1)*nout]
			for i, reg := range p.outputs {
				row[i] = regs[reg*m+j]
			}
		}
	}
	return out
}

// evalBlock runs the tape over frames lo..lo+m of an n-frame column
// batch into the block register file regs (register r at regs[r*m:]).
// Each operation mirrors EvalFrame's, including the accumulator seeds,
// so a block frame and a single frame round identically.
func (p *Program) evalBlock(cols []float64, n, lo, m int, regs []float64) {
	reg := func(r int) []float64 { return regs[r*m : r*m+m] }
	for i := range p.insts {
		in := &p.insts[i]
		dst := reg(in.dst)
		switch in.op {
		case iConst:
			for j := range dst {
				dst[j] = in.val
			}
		case iLoad:
			copy(dst, cols[in.src*n+lo:in.src*n+lo+m])
		case iAdd:
			// 0 + x, not x: the seed turns -0 into +0 as EvalFrame's does.
			first := reg(in.args[0])[:len(dst)]
			for j := range dst {
				dst[j] = 0 + first[j]
			}
			for _, a := range in.args[1:] {
				src := reg(a)[:len(dst)]
				for j := range dst {
					dst[j] += src[j]
				}
			}
		case iMul:
			first := reg(in.args[0])[:len(dst)]
			for j := range dst {
				dst[j] = 1 * first[j]
			}
			for _, a := range in.args[1:] {
				src := reg(a)[:len(dst)]
				for j := range dst {
					dst[j] *= src[j]
				}
			}
		case iDiv:
			num, den := reg(in.args[0])[:len(dst)], reg(in.args[1])[:len(dst)]
			for j := range dst {
				dst[j] = num[j] / den[j]
			}
		case iCeil:
			src := reg(in.src)[:len(dst)]
			for j := range dst {
				dst[j] = math.Ceil(roundEps(src[j]))
			}
		case iFloor:
			src := reg(in.src)[:len(dst)]
			for j := range dst {
				dst[j] = math.Floor(roundEps(src[j]))
			}
		case iMax:
			copy(dst, reg(in.args[0]))
			for _, a := range in.args[1:] {
				src := reg(a)[:len(dst)]
				for j := range dst {
					if v := src[j]; v > dst[j] {
						dst[j] = v
					}
				}
			}
		case iMin:
			copy(dst, reg(in.args[0]))
			for _, a := range in.args[1:] {
				src := reg(a)[:len(dst)]
				for j := range dst {
					if v := src[j]; v < dst[j] {
						dst[j] = v
					}
				}
			}
		}
	}
}

// ColumnRegs reports the register-file length EvalColumns needs for n
// frames, for callers that keep a reusable buffer. It stops growing at
// one block.
func (p *Program) ColumnRegs(n int) int { return p.numRegs * min(n, ColumnBlock) }

// Scratch returns a register scratch buffer sized for this program, for
// callers that drive EvalFrame in a hot loop.
func (p *Program) Scratch() []float64 { return make([]float64, p.numRegs) }

// NumRegs reports the register count EvalFrame needs, for callers that
// manage a reusable scratch buffer across programs.
func (p *Program) NumRegs() int { return p.numRegs }

// MergeVars returns the sorted union of the free variables of exprs,
// a convenience for building a Compile var order.
func MergeVars(exprs ...*Expr) []string {
	set := map[string]struct{}{}
	for _, e := range exprs {
		e.collectVars(set)
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
