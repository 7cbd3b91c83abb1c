// Package journalorder enforces write-ahead ordering: durable-state
// mutations must be preceded, in the same function body, by an append to
// the workspace journal.
//
// The analyzer is configured with two sets of functions, named
// "pkgpath.Recv.Method" (or "pkgpath.Func"):
//
//   - Mutators: calls that change state the server promises to survive a
//     crash (adding schemas, declaring equivalences, recording assertions);
//   - JournalFns: the sanctioned journaling helpers that persist a record
//     before the mutation applies.
//
// A Mutators entry that names an interface method also covers every
// concrete method implementing it in the interface's package, so naming an
// op interface's apply catches a direct call on any op record.
//
// A mutator call is clean when a journal call lexically precedes it in the
// same enclosing function declaration. Replay, recovery and an op's own
// apply method handle records that are already durable, so functions
// marked "//sit:replay" are exempt — the directive declares the function
// only ever sees a record after its journal append, it does not silence a
// live-path finding.
package journalorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Config names the mutator and journaling functions.
type Config struct {
	// Packages are the import paths where the write-ahead contract holds
	// (the durable layer). Empty means every package — packages below the
	// durability boundary call mutators freely and are not configured.
	Packages []string
	// Mutators are durable-state mutation calls, "pkgpath.Recv.Method".
	Mutators []string
	// JournalFns are the write-ahead helpers that must precede a mutator.
	JournalFns []string
}

// New builds a journalorder analyzer for the given configuration.
func New(cfg Config) *analysis.Analyzer {
	pkgs := map[string]bool{}
	for _, p := range cfg.Packages {
		pkgs[p] = true
	}
	mut := map[string]bool{}
	for _, m := range cfg.Mutators {
		mut[m] = true
	}
	jrn := map[string]bool{}
	for _, j := range cfg.JournalFns {
		jrn[j] = true
	}
	return &analysis.Analyzer{
		Name: "journalorder",
		Doc:  "journal durable-state mutations before applying them",
		Run: func(pass *analysis.Pass) error {
			if len(pkgs) > 0 && !pkgs[analysis.BasePath(pass.Pkg.Path())] {
				return nil
			}
			return run(pass, mut, jrn)
		},
	}
}

func run(pass *analysis.Pass, mutators, journalFns map[string]bool) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if analysis.HasDirective(fn.Doc, "replay") {
				continue
			}
			checkFunc(pass, fn, mutators, journalFns)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, mutators, journalFns map[string]bool) {
	var journaled token.Pos = token.NoPos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, name := calleeFunc(pass, call)
		if callee == nil {
			return true
		}
		switch {
		case journalFns[name]:
			if journaled == token.NoPos || call.Pos() < journaled {
				journaled = call.Pos()
			}
		case mutators[name] || implementsMutator(callee, mutators):
			if journaled == token.NoPos || call.Pos() < journaled {
				pass.Reportf(call.Pos(), "durable mutation %s is not preceded by a journal append in this function; write ahead first or mark the function //sit:replay", name)
			}
		}
		return true
	})
}

// calleeFunc resolves a call's static callee and its name,
// "pkgpath.Recv.Method" / "pkgpath.Func"; nil for calls through function
// values and other statically unresolvable forms.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, ""
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	name := analysis.BasePath(fn.Pkg().Path())
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rn := namedName(sig.Recv().Type()); rn != "" {
			name += "." + rn
		}
	}
	return fn, name + "." + fn.Name()
}

// implementsMutator reports whether fn is a concrete method implementing
// an interface method named in mutators, the interface being declared in
// fn's own package.
func implementsMutator(fn *types.Func, mutators map[string]bool) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || types.IsInterface(sig.Recv().Type()) {
		return false
	}
	recv, scope := sig.Recv().Type(), fn.Pkg().Scope()
	for _, name := range scope.Names() {
		iface, ok := scope.Lookup(name).Type().Underlying().(*types.Interface)
		if ok && mutators[analysis.BasePath(fn.Pkg().Path())+"."+name+"."+fn.Name()] &&
			(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
			return true
		}
	}
	return false
}

func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
