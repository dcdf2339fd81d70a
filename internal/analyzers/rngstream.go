package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RNGStream enforces the named-stream RNG convention (DESIGN.md, "RNG
// streams"): every random stream a simulation component owns must be
// derived from a *name*, via sim.DeriveSeed("component/kind", parts...)
// or a helper wrapping it — never by ad-hoc arithmetic on a base seed
// (seed+1, seed*31+i), whose streams silently collide or shift when a
// component is added, removed, or reordered. flowgen's Business (its
// Name and the run seed routed through sim.DeriveSeed) is the positive
// pattern; this analyzer keeps the codebase there. Three checks:
//
//   - raw seed arithmetic: a non-constant arithmetic expression feeding
//     sim.NewRand / rand.New / rand.NewSource. Pass a seed through
//     unchanged, or derive a named stream. A deliberate exception
//     carries `//dmzvet:rawseed <reason>`; the simulator has none left.
//   - unrooted streams: a sim.DeriveSeed call that names a stream but
//     leaves out the run seed, so every seed replays the same draws.
//     The call must pass the seed as strconv.FormatInt(seed, 10) or
//     spread a caller's parts (harness.Seed, Network.Stream), whose
//     callers root them. A deliberately seedless stream carries
//     `//dmzvet:rawseed <reason>`.
//   - shared streams: storing a *rand.Rand read out of another
//     component's field (or returned by a stream-accessor method — an
//     interprocedural fact) into your own field aliases one generator
//     across two components, so adding a draw in one perturbs the
//     other. A deliberate alias carries `//dmzvet:sharedrng <reason>`.
//     Handing a *rand.Rand to a callee as an argument stays legal —
//     injection is the convention (the fault overlay passes the port's
//     stream on to the loss model it wraps); aliasing into long-lived
//     state is the bug.
//
// Scoped to internal/ simulation packages, like simclock.
var RNGStream = &ProgramAnalyzer{
	Name: "rngstream",
	Doc:  "require named RNG streams: no raw seed arithmetic, no *rand.Rand aliased across components",
	Run:  runRNGStream,
}

// randCtors are the constructors whose seed arguments are classified.
var randCtors = map[string]bool{
	"NewRand":   true, // sim.NewRand(seed)
	"NewSource": true, // rand.NewSource(seed)
	"NewPCG":    true, // rand/v2.NewPCG(seed1, seed2)
}

func runRNGStream(pass *ProgramPass) error {
	accessors := streamAccessors(pass.Prog)
	for _, pkg := range pass.Prog.Pkgs {
		if !simScoped(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			file := f
			ast.Inspect(f, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.CallExpr:
					checkSeedArgs(pass, pkg, file, e)
					checkRooted(pass, pkg, file, e)
				case *ast.AssignStmt:
					checkStreamAssign(pass, pkg, file, accessors, e)
				case *ast.CompositeLit:
					checkStreamComposite(pass, pkg, file, accessors, e)
				}
				return true
			})
		}
	}
	return nil
}

// checkSeedArgs flags raw seed arithmetic feeding a RNG constructor.
func checkSeedArgs(pass *ProgramPass, pkg *Package, f *ast.File, call *ast.CallExpr) {
	name, ok := calleeName(call)
	if !ok || !randCtors[name] {
		return
	}
	if _, isFn := calleeFunc(pkg.TypesInfo, call); !isFn {
		return // a type conversion or unresolved name, not a constructor
	}
	for _, arg := range call.Args {
		if expr, bad := rawSeedExpr(pkg.TypesInfo, arg); bad {
			if pass.suppressed(pkg, f, call, "rawseed") {
				continue
			}
			pass.Reportf(pkg, expr,
				"raw seed arithmetic feeds a RNG stream: derive a named stream with sim.DeriveSeed(\"component/kind\", ...) so streams stay stable as components are added or reordered, or justify a legacy path with //dmzvet:rawseed")
		}
	}
}

// checkRooted flags a DeriveSeed call with no part formatting a seed.
func checkRooted(pass *ProgramPass, pkg *Package, f *ast.File, call *ast.CallExpr) {
	if name, ok := calleeName(call); !ok || name != "DeriveSeed" || call.Ellipsis.IsValid() {
		return
	}
	if _, isFn := calleeFunc(pkg.TypesInfo, call); !isFn {
		return
	}
	for _, arg := range call.Args {
		if formatsSeed(pkg.TypesInfo, arg) {
			return
		}
	}
	if pass.suppressed(pkg, f, call, "rawseed") {
		return
	}
	pass.Reportf(pkg, call,
		"DeriveSeed names a stream without the run seed, so every seed replays the same draws: pass strconv.FormatInt(seed, 10) or derive through a seeded accessor (Network.Stream), or justify a seedless stream with //dmzvet:rawseed")
}

// formatsSeed reports whether e is strconv.FormatInt(x, 10).
func formatsSeed(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := calleeFunc(info, call)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "strconv" || fn.Name() != "FormatInt" {
		return false
	}
	base, ok := info.Types[call.Args[1]]
	return ok && base.Value != nil && base.Value.ExactString() == "10"
}

// rawSeedExpr reports whether the seed expression contains non-constant
// arithmetic. Plain identifiers and field reads (a root seed passed
// through), constants, and calls (derivation helpers) are legal.
func rawSeedExpr(info *types.Info, e ast.Expr) (ast.Expr, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			// Unwrap conversions like int64(expr); real calls are legal.
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return nil, false
		}
		break
	}
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return nil, false // constant-folded: stable by construction
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.XOR, token.AND, token.OR, token.AND_NOT, token.SHL, token.SHR:
			return x, true
		}
	case *ast.UnaryExpr:
		if x.Op == token.XOR || x.Op == token.SUB {
			return x, true
		}
	}
	return nil, false
}

// calleeFunc resolves a call's callee to a *types.Func when it is a
// plain function or method call.
func calleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, ok := info.Uses[fun].(*types.Func)
		return fn, ok
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		return fn, ok
	}
	return nil, false
}

// isRandRand reports whether t is *rand.Rand (math/rand or math/rand/v2;
// fixtures import the real package, so the path check is exact).
func isRandRand(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Rand" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2")
}

// streamAccessors summarizes, program-wide, the methods that hand out a
// component's own stream: a body that is exactly `return x.field` where
// the field is a *rand.Rand. Storing such a method's result into
// another component's field aliases the stream just as directly as
// reading the field would.
func streamAccessors(prog *Program) map[string]bool {
	out := make(map[string]bool)
	for _, fi := range prog.Funcs() {
		if fi.Decl.Recv == nil || len(fi.Decl.Body.List) != 1 {
			continue
		}
		ret, ok := fi.Decl.Body.List[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			continue
		}
		if fieldRead(fi.Pkg.TypesInfo, ret.Results[0]) && isRandRand(exprType(fi.Pkg.TypesInfo, ret.Results[0])) {
			out[fi.Name] = true
		}
	}
	return out
}

// fieldRead reports whether e is a selector resolving to a struct field.
func fieldRead(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	return ok && v.IsField()
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// sharedStreamSource classifies a RHS expression that would alias an
// existing stream: a field read of a *rand.Rand, or a call to a stream
// accessor.
func sharedStreamSource(pass *ProgramPass, pkg *Package, accessors map[string]bool, e ast.Expr) (string, bool) {
	if !isRandRand(exprType(pkg.TypesInfo, e)) {
		return "", false
	}
	if fieldRead(pkg.TypesInfo, e) {
		return "reading another component's field", true
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if fn, ok := calleeFunc(pkg.TypesInfo, call); ok && accessors[fn.FullName()] {
			return "calling stream accessor " + fn.Name(), true
		}
	}
	return "", false
}

// checkStreamAssign flags `x.f = y.g` (and accessor-call forms) where a
// *rand.Rand crosses from one component's state into another's.
func checkStreamAssign(pass *ProgramPass, pkg *Package, f *ast.File, accessors map[string]bool, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if v, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Var); !ok || !v.IsField() {
			continue
		}
		if src, bad := sharedStreamSource(pass, pkg, accessors, as.Rhs[i]); bad {
			if pass.suppressed(pkg, f, as, "sharedrng") {
				continue
			}
			pass.Reportf(pkg, as.Rhs[i],
				"*rand.Rand aliased across components (%s): each component must own a named stream (sim.NewRand(sim.DeriveSeed(...))) — a shared generator makes one component's draws perturb another's; justify deliberate pass-through with //dmzvet:sharedrng", src)
		}
	}
}

// checkStreamComposite flags `T{rng: y.g}` composite-literal stores of
// an existing stream.
func checkStreamComposite(pass *ProgramPass, pkg *Package, f *ast.File, accessors map[string]bool, lit *ast.CompositeLit) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if src, bad := sharedStreamSource(pass, pkg, accessors, kv.Value); bad {
			if pass.suppressed(pkg, f, kv, "sharedrng") {
				continue
			}
			pass.Reportf(pkg, kv.Value,
				"*rand.Rand aliased across components (%s): each component must own a named stream (sim.NewRand(sim.DeriveSeed(...))) — a shared generator makes one component's draws perturb another's; justify deliberate pass-through with //dmzvet:sharedrng", src)
		}
	}
}
