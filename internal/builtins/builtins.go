// Package builtins is the single registry of the math builtins callable
// from FPL. The checker (internal/lang) takes arities from it, lowering
// (internal/ir) resolves names to the function pointers stored here, and
// both execution engines (the internal/interp tree-walker and the
// internal/compile flat-code VM) call through those pointers — so adding
// a builtin is one entry in one table, and an unknown builtin is a
// compile-time error instead of a runtime panic.
package builtins

import (
	"fmt"
	"math"
)

// Unary maps each 1-argument builtin to its implementation.
var Unary = map[string]func(float64) float64{
	"sin":   math.Sin,
	"cos":   math.Cos,
	"tan":   math.Tan,
	"asin":  math.Asin,
	"acos":  math.Acos,
	"atan":  math.Atan,
	"sinh":  math.Sinh,
	"cosh":  math.Cosh,
	"tanh":  math.Tanh,
	"sqrt":  math.Sqrt,
	"cbrt":  math.Cbrt,
	"fabs":  math.Abs,
	"exp":   math.Exp,
	"exp2":  math.Exp2,
	"expm1": math.Expm1,
	"log":   math.Log,
	"log2":  math.Log2,
	"log10": math.Log10,
	"log1p": math.Log1p,
	"floor": math.Floor,
	"ceil":  math.Ceil,
	"trunc": math.Trunc,
	"round": math.Round,
	// highword(x) returns float64(high32(bits(x)) & 0x7fffffff): the
	// sign-masked upper half of x's IEEE-754 representation — glibc's
	// branch dispatch key (the paper's Fig. 8), exactly representable
	// as a double. It lets FPL clients express bit-pattern range
	// dispatch like the GNU sin case study.
	"highword": Highword,
}

// Binary maps each 2-argument builtin to its implementation.
var Binary = map[string]func(float64, float64) float64{
	"pow":      math.Pow,
	"fmin":     math.Min,
	"fmax":     math.Max,
	"fmod":     math.Mod,
	"atan2":    math.Atan2,
	"hypot":    math.Hypot,
	"copysign": math.Copysign,
}

// Highword implements the highword builtin.
func Highword(x float64) float64 {
	return float64(uint32(math.Float64bits(x)>>32) & 0x7fffffff)
}

// Resolve returns the implementation of the named builtin at the given
// arity: exactly one of the returned functions is non-nil on success.
func Resolve(name string, arity int) (func(float64) float64, func(float64, float64) float64, error) {
	switch arity {
	case 1:
		if fn, ok := Unary[name]; ok {
			return fn, nil, nil
		}
	case 2:
		if fn, ok := Binary[name]; ok {
			return nil, fn, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown builtin %s/%d", name, arity)
}

// Arity returns the number of arguments the named builtin takes, or 0
// when there is no such builtin.
func Arity(name string) int {
	if _, ok := Unary[name]; ok {
		return 1
	}
	if _, ok := Binary[name]; ok {
		return 2
	}
	return 0
}
