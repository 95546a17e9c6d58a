package analysis

import (
	"go/ast"
	"go/types"
)

// ClockPackage is the one package allowed to read the ambient wall
// clock: it owns the constructors everything else injects.
const ClockPackage = "duet/internal/clock"

// ambientClockFuncs are the package-level time functions that read or
// schedule against the process-global clock. time.Time/time.Duration
// arithmetic is fine — only the ambient sources are fenced.
var ambientClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// NoClock enforces the injectable-clock rule (PR 1): all time must flow
// through injected `func() float64` clocks so failover traces and churn
// tests stay deterministic. Direct calls to time.Now, time.Sleep,
// time.Since, time.After and friends are flagged everywhere except the
// clock-constructor package itself (duet/internal/clock) and _test
// files. Code that genuinely needs wall time — socket deadlines,
// interactive CLI polling — carries a //duet:allow noclock comment with
// the reason.
var NoClock = &Analyzer{
	Name: "noclock",
	Doc: "flags direct time.Now/Sleep/Since/After calls outside the " +
		"injectable-clock constructor package duet/internal/clock",
	Run: runNoClock,
}

func runNoClock(pass *Pass) error {
	if pass.Pkg.Path() == ClockPackage {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if !ambientClockFuncs[fn.Name()] {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods like (*Timer).Reset are fine
			}
			pass.Reportf(call.Pos(),
				"direct time.%s call; inject a clock (clock.Wall, cfg.Clock) or annotate //duet:allow noclock <reason>",
				fn.Name())
			return true
		})
	}
	return nil
}
