package analyzers

import (
	"go/ast"
	"go/types"
)

// ShardSafe enforces the host-affinity contract the sharded engine
// (netsim.Engine) depends on: code that runs on the packet data
// path executes on its node's shard scheduler, whose clock runs ahead
// of the control plane between barriers. Touching the network-level
// control scheduler from there is the exact bug class the PR 7 sweep
// fixed by hand — stamping times off Network.Sched.Now (which lags
// shard time), or scheduling events onto the control scheduler from a
// shard goroutine (which races the barrier loop). This analyzer walks
// the callgraph from every per-packet / per-tick entry point and flags,
// anywhere in the reachable closure:
//
//   - any use of the Sched field of a Network value — data-path code
//     must schedule through NodeBase.EventScheduler or the implicit
//     shard context, and read time via Host.Now / Port.Now;
//   - any call of Network.Now, which is Network.Sched.Now by another
//     name.
//
// Entry points (the roots of the walk):
//
//   - functions marked //dmz:hotpath (the per-packet kernel path);
//   - functions marked //dmz:datapath — per-packet entry points that
//     are reached through func values the callgraph cannot see
//     (netsim.HandlerFunc adapters, taps), such as transport deliver
//     handlers;
//   - methods named Receive or Deliver taking a *Packet parameter (the
//     netsim.Node / netsim.Handler implementations).
//
// Interface calls (Node.Receive, Handler.Deliver, LossModel.Drop, ...)
// are traversed to every same-name same-arity method, so the closure
// spans packages. Reporting is scoped to internal/ simulation packages.
//
// Escape: a deliberate control-plane touch inside a reachable function
// carries `//dmzvet:controlplane <reason>` — for helpers that are
// genuinely called from both contexts and guard the data-path case away.
var ShardSafe = &ProgramAnalyzer{
	Name: "shardsafe",
	Doc:  "forbid Network.Sched / Network.Now in code reachable from data-path entry points",
	Run:  runShardSafe,
}

// DataPathMark explicitly roots a function in the shardsafe walk. It
// exists for entry points invoked through plain func values — handler
// adapters, taps, scheduler callbacks — which static call resolution
// cannot reach.
const DataPathMark = "//dmz:datapath"

func runShardSafe(pass *ProgramPass) error {
	prog := pass.Prog
	var roots []*FuncInfo
	for _, fi := range prog.Funcs() {
		if docHasMark(fi.Decl.Doc, HotPathMark) || docHasMark(fi.Decl.Doc, DataPathMark) || isPacketEndpoint(fi) {
			roots = append(roots, fi)
		}
	}
	parent := prog.Reachable(roots, true)
	for _, fi := range prog.Funcs() {
		if _, reached := parent[fi]; !reached {
			continue
		}
		if !simScoped(fi.Pkg.Path) {
			continue
		}
		checkShardSafeBody(pass, parent, fi)
	}
	return nil
}

// isPacketEndpoint recognizes the netsim.Node / netsim.Handler shapes:
// a method named Receive or Deliver with a parameter that is a pointer
// to a named type Packet. Matching is by name so it holds across the
// per-package type-check worlds (and in fixtures that mirror the types).
func isPacketEndpoint(fi *FuncInfo) bool {
	if fi.Decl.Recv == nil {
		return false
	}
	if name := fi.Decl.Name.Name; name != "Receive" && name != "Deliver" {
		return false
	}
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if namedPointeeName(sig.Params().At(i).Type()) == "Packet" {
			return true
		}
	}
	return false
}

// namedPointeeName returns the name of the named type behind a pointer
// (or the named type itself), or "".
func namedPointeeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func checkShardSafeBody(pass *ProgramPass, parent map[*FuncInfo]*FuncInfo, fi *FuncInfo) {
	info := fi.Pkg.TypesInfo
	root := Root(parent, fi)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// n.Sched — reading or scheduling on the control scheduler.
		if sel.Sel.Name == "Sched" {
			if obj, ok := info.Uses[sel.Sel].(*types.Var); ok && obj.IsField() && receiverTypeName(info, sel) == "Network" {
				if !pass.suppressed(fi.Pkg, fi.File, sel, "controlplane") {
					pass.Reportf(fi.Pkg, sel,
						"Network.Sched touched on the data path (reachable from %s via %s): shard-local code must use the node's shard context (Host.Now/Port.Now, EventScheduler) — control events on Network.Sched only run at engine barriers; justify deliberate control-plane work with //dmzvet:controlplane",
						root.ShortName(), Chain(parent, fi))
				}
			}
			return true
		}
		// n.Now() — Network.Sched.Now by another name.
		if sel.Sel.Name == "Now" {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && receiverNamed(fn, "Network") {
				if !pass.suppressed(fi.Pkg, fi.File, sel, "controlplane") {
					pass.Reportf(fi.Pkg, sel,
						"Network.Now called on the data path (reachable from %s via %s): the control clock lags shard time between barriers — stamp with Host.Now or Port.Now; justify deliberate control-plane reads with //dmzvet:controlplane",
						root.ShortName(), Chain(parent, fi))
				}
			}
		}
		return true
	})
}

// receiverTypeName resolves the named type of a field selector's base
// expression (unwrapping pointers), or "".
func receiverTypeName(info *types.Info, sel *ast.SelectorExpr) string {
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	return namedPointeeName(tv.Type)
}
