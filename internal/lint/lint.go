// Package lint is pyro's custom static-analysis suite: a set of analyzers
// that prove the engine's cross-cutting invariants at compile time — every
// spill arena released on every path, every unbounded tuple loop polling
// its abort guard, error wrapping that keeps sentinel errors reachable,
// page I/O routed through the ledger-charging storage layer, and no
// nondeterminism feeding the pinned work counters or plan choice.
//
// The contracts encoded here are exactly the ones the Go type checker
// cannot see and that previously rested on reviewer vigilance: the PR 8
// fault sweep caught the MRS adopt arena leak only *dynamically*, after
// the code shipped. Each analyzer turns one such contract into a versioned,
// tested check that every future subsystem inherits automatically.
//
// The suite is deliberately dependency-free: instead of
// golang.org/x/tools/go/analysis it carries a small driver of the same
// shape (Analyzer / Pass / Report) built on the standard library — package
// loading shells out to `go list -export` and type-checks from gc export
// data, so `make lint-pyro` needs nothing beyond the Go toolchain.
//
// Three comment annotations are recognized, all requiring a non-empty
// reason:
//
//	//pyro:bounded(reason)          — abortpoll: this loop terminates in
//	                                  bounded work without polling
//	//pyro:unordered(reason)        — determinism: this map iteration does
//	                                  not feed counters or plan choice
//	//pyro:nolint:analyzer(reason)  — suppress one analyzer on one line;
//	                                  the repo-wide meta-test pins the
//	                                  total suppression count at zero
//
// An annotation may sit on the offending line or on the line directly
// above it. Malformed annotations (no reason, unknown analyzer) are
// themselves diagnostics, and bounded/unordered annotations that do not
// attach to a matching statement are reported as stale.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the checks could migrate to
// the upstream driver without rewriting their Run functions.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //pyro:nolint:<name>(reason) annotations. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant and why the
	// engine needs it.
	Doc string
	// Run inspects one package and reports diagnostics via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// Reportf records a diagnostic at pos. Suppression via pyro:nolint is
	// applied by the driver, not here.
	Reportf func(pos token.Pos, format string, args ...any)
}

// Fset returns the file set positions in this pass resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed syntax trees.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-checking results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.Path }

// Annotation returns the annotation of the given kind attached to pos —
// on the same source line or the line directly above — and marks it
// consumed so the driver can flag stale annotations that attach to
// nothing. The second result reports whether one was found.
func (p *Pass) Annotation(pos token.Pos, kind string) (*Annotation, bool) {
	position := p.Pkg.Fset.Position(pos)
	for _, a := range p.Pkg.annotations {
		if a.Kind != kind || a.File != position.Filename {
			continue
		}
		if a.Line == position.Line || a.Line == position.Line-1 {
			a.used = true
			return a, true
		}
	}
	return nil, false
}

// A Diagnostic is one analyzer finding at one source position.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// An Annotation is one parsed //pyro:... comment.
type Annotation struct {
	Kind     string // "bounded", "unordered" or "nolint"
	Analyzer string // target analyzer, for nolint only
	Reason   string
	File     string
	Line     int
	Pos      token.Pos

	used bool // consumed by an analyzer or matched to a diagnostic
}

// annotationPrefix introduces every recognized annotation comment. Like
// go:build constraints the marker must follow the slashes immediately.
const annotationPrefix = "//pyro:"

// parseAnnotations extracts pyro annotations from a file's comments.
// Malformed annotations are returned as diagnostics so they fail the lint
// run instead of being silently inert.
func parseAnnotations(fset *token.FileSet, file *ast.File) (anns []*Annotation, bad []Diagnostic) {
	for _, group := range file.Comments {
		for _, c := range group.List {
			text := c.Text
			if !strings.HasPrefix(text, annotationPrefix) {
				continue
			}
			body := strings.TrimPrefix(text, annotationPrefix)
			position := fset.Position(c.Pos())
			ann, err := parseAnnotationBody(body)
			if err != nil {
				bad = append(bad, Diagnostic{
					Analyzer: "annotation",
					Position: position,
					Message:  err.Error(),
				})
				continue
			}
			ann.File = position.Filename
			ann.Line = position.Line
			ann.Pos = c.Pos()
			anns = append(anns, ann)
		}
	}
	return anns, bad
}

// parseAnnotationBody parses the text after the //pyro: marker:
// "bounded(reason)", "unordered(reason)" or "nolint:analyzer(reason)".
func parseAnnotationBody(body string) (*Annotation, error) {
	open := strings.IndexByte(body, '(')
	if open < 0 || !strings.HasSuffix(body, ")") {
		return nil, fmt.Errorf("malformed pyro annotation %q: want //pyro:kind(reason)", annotationPrefix+body)
	}
	head, reason := body[:open], body[open+1:len(body)-1]
	if strings.TrimSpace(reason) == "" {
		return nil, fmt.Errorf("pyro annotation %q requires a non-empty reason", annotationPrefix+body)
	}
	ann := &Annotation{Reason: reason}
	switch {
	case head == "bounded", head == "unordered":
		ann.Kind = head
	case strings.HasPrefix(head, "nolint:"):
		ann.Kind = "nolint"
		ann.Analyzer = strings.TrimPrefix(head, "nolint:")
		if ann.Analyzer == "" {
			return nil, fmt.Errorf("pyro:nolint annotation must name an analyzer: //pyro:nolint:<analyzer>(reason)")
		}
	default:
		return nil, fmt.Errorf("unknown pyro annotation kind %q", head)
	}
	return ann, nil
}

// pathWithin reports whether pkgPath denotes the package named by the
// module-relative suffix (for example "internal/xsort"): either the path
// ends in "/"+suffix or — for fixture modules rooted at the package — is
// the suffix itself.
func pathWithin(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// pkgPathOf returns the import path of the package an object belongs to,
// or "" for builtins and objects in the universe scope.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// namedFrom reports whether t (after stripping pointers) is the named type
// name declared in the package identified by the module-relative suffix.
func namedFrom(t types.Type, pkgSuffix, name string) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name {
		return false
	}
	return pathWithin(pkgPathOf(obj), pkgSuffix)
}
