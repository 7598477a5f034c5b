package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// NonDeterminism guards the packages whose answers are proven bitwise
// equal across execution strategies — the quantifiers
// (internal/quantify), the NN≠0 structures (internal/nnq,
// internal/linf), and the Bentley–Saxe DynamicIndex layer (dynamic.go
// in the root package). Those
// proofs (sparse==dense, dynamic==static-rebuild) only hold if the
// code is a pure function of its inputs and seeds: time.Now and the
// process-global math/rand source (rand.Intn, rand.Float64, …) are
// banned there. Explicitly seeded sources (rand.New(rand.NewSource(s)))
// remain fine.
var NonDeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "no time.Now or global math/rand source in the deterministic query packages",
	Run:  runNonDeterminism,
}

// deterministicPackages are the module-relative packages under the
// determinism contract.
var deterministicPackages = map[string]bool{
	"internal/quantify": true,
	"internal/nnq":      true,
	"internal/linf":     true,
}

// globalRandFuncs are the math/rand package functions backed by the
// shared global source. Constructors (New, NewSource, NewZipf) and
// methods on an explicit *rand.Rand are allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func runNonDeterminism(pass *Pass) {
	rel := pass.Pkg.RelPath
	rootPkg := rel == ""
	if !rootPkg && !deterministicPackages[rel] {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if rootPkg {
			// In the root package only the DynamicIndex layer carries the
			// determinism contract.
			name := filepath.Base(pass.Prog.Fset.Position(f.Package).Filename)
			if name != "dynamic.go" {
				continue
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Methods (on *rand.Rand, time.Time, …) have receivers; only
			// package-level functions reach the global state.
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" {
					pass.Reportf(sel.Pos(), "time.Now in a deterministic package; results must be a pure function of inputs and seeds")
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "rand.%s uses the process-global source; take a seeded *rand.Rand instead", fn.Name())
				}
			}
			return true
		})
	}
}
