// Package directive validates the //sit: directive comments the other
// analyzers consume: the name must be one the suite knows, the argument
// count must match the directive's arity, and the comment must sit where
// its consumer looks for it — a function's doc comment. A misspelled or
// misplaced directive silently disables the invariant it was supposed to
// declare, which is exactly the failure mode a vet suite exists to
// prevent.
package directive

import (
	"fmt"
	"go/ast"
	"strings"

	"repro/internal/analysis"
)

// arity is a directive's argument-count contract.
type arity struct {
	min int
	max int // -1: unbounded
}

// known maps each directive name to its arity. All of them attach to
// function doc comments.
var known = map[string]arity{
	"locked":       {1, -1}, // mutexes the caller must hold exclusively
	"rlocked":      {1, -1}, // mutexes the caller must hold at least for reading
	"exclusive":    {0, 0},  // single-goroutine section: lock checks off
	"replay":       {0, 0},  // applies already-journaled records: journalorder exemption
	"admission":    {0, 0},  // handler runs behind admission control
	"metriclabel":  {1, -1}, // which parameters feed metric labels
	"boundedlabel": {0, 0},  // function clamps its result to a bounded set
	"hotpath":      {0, 0},  // zero-allocation hot path (hotalloc)
}

// New returns the directive analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "directive",
		Doc:  "validate //sit: directive names, arities and placement",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Comment groups that are a function's doc comment — the one place
		// directives take effect.
		funcDocs := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = fd
			}
		}
		for _, cg := range f.Comments {
			fd := funcDocs[cg]
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//sit:")
				if !ok {
					continue
				}
				name, args, _ := strings.Cut(text, " ")
				name = strings.TrimSpace(name)
				if fd == nil {
					pass.Reportf(c.Pos(), "misplaced //sit:%s: directives only take effect in a function's doc comment", name)
					continue
				}
				ar, ok := known[name]
				if !ok {
					pass.Reportf(fd.Name.Pos(), "unknown directive //sit:%s on %s: no analyzer consumes it", name, analysis.FuncName(fd))
					continue
				}
				n := len(strings.Fields(args))
				if n < ar.min || (ar.max >= 0 && n > ar.max) {
					pass.Reportf(fd.Name.Pos(), "//sit:%s on %s has %d argument%s, want %s", name, analysis.FuncName(fd), n, plural(n), arityStr(ar))
				}
			}
		}
	}
	return nil
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

func arityStr(ar arity) string {
	switch {
	case ar.min == ar.max:
		return fmt.Sprintf("exactly %d", ar.min)
	case ar.max < 0:
		return fmt.Sprintf("at least %d", ar.min)
	default:
		return fmt.Sprintf("%d to %d", ar.min, ar.max)
	}
}
