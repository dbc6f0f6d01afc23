package gofront

import (
	"fmt"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/builtins"
)

// mathFuncs maps each supported math.* function to the internal/builtins
// name it lowers to; its arity is the builtin's. Both execution engines
// call the very math function the native build calls (internal/builtins
// stores the function pointers), so lifted math calls are bit-identical
// to native execution by construction.
var mathFuncs = map[string]string{
	"Sin":      "sin",
	"Cos":      "cos",
	"Tan":      "tan",
	"Asin":     "asin",
	"Acos":     "acos",
	"Atan":     "atan",
	"Sinh":     "sinh",
	"Cosh":     "cosh",
	"Tanh":     "tanh",
	"Sqrt":     "sqrt",
	"Cbrt":     "cbrt",
	"Abs":      "fabs",
	"Exp":      "exp",
	"Exp2":     "exp2",
	"Expm1":    "expm1",
	"Log":      "log",
	"Log2":     "log2",
	"Log10":    "log10",
	"Log1p":    "log1p",
	"Floor":    "floor",
	"Ceil":     "ceil",
	"Trunc":    "trunc",
	"Round":    "round",
	"Pow":      "pow",
	"Min":      "fmin",
	"Max":      "fmax",
	"Mod":      "fmod",
	"Atan2":    "atan2",
	"Hypot":    "hypot",
	"Copysign": "copysign",
}

// mathConsts are the math package constants the frontend understands,
// as untyped floating-point constants with the exact literals of Go's
// math/const.go — so folding through go/types' arbitrary-precision
// evaluator reproduces gc's conversion bit for bit.
var mathConsts = map[string]string{
	"E":       "2.71828182845904523536028747135266249775724709369995957496696763",
	"Pi":      "3.14159265358979323846264338327950288419716939937510582097494459",
	"Phi":     "1.61803398874989484820458683436563811772030917980576286213544862",
	"Sqrt2":   "1.41421356237309504880168872420969807856967187537694807317667974",
	"SqrtE":   "1.64872127070012814684865078781416357165377610071014801157507931",
	"SqrtPi":  "1.77245385090551602729816748334114518279754945612238712821380779",
	"SqrtPhi": "1.27201964951406896425242246173749149171560804184009624861664038",
	"Ln2":     "0.693147180559945309417232121458176568075500134360255254120680009",
	"Ln10":    "2.30258509299404568401799145468436420760110148862877297603332790",

	"MaxFloat64":             "0x1.fffffffffffffp1023",
	"SmallestNonzeroFloat64": "0x1p-1074",
}

// mathPackage builds a hermetic synthetic "math" package for the type
// checker: only what the subset supports exists, so an unsupported
// math.* reference fails at compile time, and compilation never depends
// on a host Go installation or export data.
func mathPackage() *types.Package {
	pkg := types.NewPackage("math", "math")
	scope := pkg.Scope()
	f64 := types.Typ[types.Float64]

	for name, builtin := range mathFuncs {
		params := make([]*types.Var, builtins.Arity(builtin))
		for i := range params {
			params[i] = types.NewParam(token.NoPos, pkg, fmt.Sprintf("x%d", i), f64)
		}
		sig := types.NewSignatureType(nil, nil, nil,
			types.NewTuple(params...),
			types.NewTuple(types.NewParam(token.NoPos, pkg, "", f64)),
			false)
		scope.Insert(types.NewFunc(token.NoPos, pkg, name, sig))
	}

	uf := types.Typ[types.UntypedFloat]
	lit := func(s string) constant.Value {
		return constant.MakeFromLiteral(s, token.FLOAT, 0)
	}
	for name, l := range mathConsts {
		scope.Insert(types.NewConst(token.NoPos, pkg, name, uf, lit(l)))
	}
	// Log2E and Log10E are defined as 1/Ln2 and 1/Ln10 in math/const.go;
	// evaluating the same division in the arbitrary-precision domain
	// keeps the folded float64 identical to the native constant.
	one := constant.MakeFromLiteral("1", token.INT, 0)
	scope.Insert(types.NewConst(token.NoPos, pkg, "Log2E", uf,
		constant.BinaryOp(one, token.QUO, lit(mathConsts["Ln2"]))))
	scope.Insert(types.NewConst(token.NoPos, pkg, "Log10E", uf,
		constant.BinaryOp(one, token.QUO, lit(mathConsts["Ln10"]))))

	pkg.MarkComplete()
	return pkg
}

// subsetImporter resolves imports during type checking. Only "math" is
// importable — the subset has no I/O, no concurrency, no allocation.
type subsetImporter struct{}

func (subsetImporter) Import(path string) (*types.Package, error) {
	if path == "math" {
		return mathPackage(), nil
	}
	return nil, fmt.Errorf("import %q is outside the analyzable subset (only \"math\" may be imported)", path)
}
