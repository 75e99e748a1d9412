// Package lint implements flick-lint, a small static-analysis framework
// (in the spirit of go/analysis, built only on the standard library's
// go/ast and go/types) plus the analyzers that enforce Flick-Go's
// runtime buffer-ownership contract on generated stubs and on package
// rt itself:
//
//   - releasecheck — every pooled *rt.Decoder obtained from a
//     call-shaped method (rt.Client.Do, rt.Promise.Wait,
//     rt.ClientStream.Recv, and compatible wrappers) is Released
//     exactly once, never used after release, and never captured by a
//     function literal outliving the borrow (the rt/pool.go contract:
//     the decoder returns to the pool on Release, so a later use —
//     including one deferred into a promise or stream callback — reads
//     another call's reply).
//   - sendsafe — implementations of Conn.Send must not retain the
//     message buffer (store it in a field, a global, or a channel): the
//     caller reuses the buffer as soon as Send returns.
//   - poolescape — pooled objects (*rt.Decoder, *rt.Encoder) must not
//     be stored into struct fields or package-level variables; a pooled
//     object's lifetime is the call that borrowed it.
//   - arenalife — slices obtained from Decoder.AliasNext alias a pooled
//     receive arena and must not escape their borrow (globals, channel
//     sends, stores or returns past the decoder's Release); the one
//     sanctioned escape is ownership transfer, the generated Unmarshal
//     shape that hands the view on without releasing.
//
// A finding on a line carrying a `//lint:allow <analyzer>` comment is
// suppressed — used by rt's sanctioned reply-handoff store.
//
// The framework deliberately mirrors go/analysis (Analyzer, Pass,
// Reportf) so the analyzers can be ported to x/tools verbatim if that
// dependency ever becomes available.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name>` suppressions.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run inspects one package through the Pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	// allow maps "file:line" to the set of analyzer names suppressed on
	// that line.
	allow map[string]map[string]bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Msg      string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Msg, d.Analyzer)
}

// Reportf records a finding at pos unless the line carries a matching
// `//lint:allow` comment.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d", position.Filename, position.Line)
	if names, ok := p.allow[key]; ok && (names[p.Analyzer.Name] || names["*"]) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Msg:      fmt.Sprintf(format, args...),
	})
}

var allowRE = regexp.MustCompile(`//lint:allow\s+([\w*,]+)`)

// buildAllow scans the files' comments for suppression directives.
func buildAllow(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	allow := map[string]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if allow[key] == nil {
					allow[key] = map[string]bool{}
				}
				for _, name := range strings.Split(m[1], ",") {
					allow[key][strings.TrimSpace(name)] = true
				}
			}
		}
	}
	return allow
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Analyze runs the analyzers over the package and returns their
// findings sorted by position.
func Analyze(p *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	allow := buildAllow(p.Fset, p.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     p.Fset,
			Files:    p.Files,
			Pkg:      p.Pkg,
			Info:     p.Info,
			diags:    &diags,
			allow:    allow,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// All returns the default analyzer set.
func All() []*Analyzer {
	return []*Analyzer{ReleaseCheck, SendSafe, PoolEscape, ArenaLife}
}

// --- shared type helpers ----------------------------------------------------

// rtPath is the import path of the runtime whose ownership contract the
// analyzers enforce.
const rtPath = "flick/rt"

// isRTNamed reports whether t is the named type flick/rt.<name>.
func isRTNamed(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == rtPath
}

// isPtrToRT reports whether t is *flick/rt.<name>.
func isPtrToRT(t types.Type, name string) bool {
	p, ok := t.(*types.Pointer)
	return ok && isRTNamed(p.Elem(), name)
}

// isPooledType reports whether t is a pooled runtime object pointer.
func isPooledType(t types.Type) bool {
	return isPtrToRT(t, "Decoder") || isPtrToRT(t, "Encoder")
}
