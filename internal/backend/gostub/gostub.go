// Package gostub is Flick-Go's executable back end: it renders mir
// marshal programs as Go source. It plays the role CAST plays for C —
// the paper's design explicitly anticipates swapping the target-language
// layer this way.
//
// Three code styles model the compilers of the paper's evaluation:
//
//   - StyleFlick: the optimized output (grouped buffer checks, chunk
//     windows, bulk copies, inlined marshal code).
//   - StyleRpcgen: per-datum checked runtime calls, one marshal function
//     per named type — the structure of rpcgen's xdr_* routines.
//   - StylePowerRPC: rpcgen structure plus an extra indirection through a
//     function table on every datum.
//
// Output is gofmt-canonical by construction: Generate parses it only to
// reject invalid Go, and the root package's
// TestGeneratedGoIsGofmtCanonical matrix is the contract.
package gostub

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"

	"flick/internal/mir"
	"flick/internal/pres"
	"flick/internal/presc"
	"flick/internal/verify"
	"flick/internal/wire"
)

// Style selects the emitted code shape.
type Style int

const (
	StyleFlick Style = iota
	StyleRpcgen
	StylePowerRPC
)

func (s Style) String() string {
	switch s {
	case StyleFlick:
		return "flick"
	case StyleRpcgen:
		return "rpcgen"
	case StylePowerRPC:
		return "powerrpc"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// Config parameterizes generation.
type Config struct {
	// Package names the generated Go package.
	Package string
	// Format is the wire encoding.
	Format wire.Format
	// Style selects optimized or baseline code shapes.
	Style Style
	// Opts overrides the mir optimization set; nil uses the style's
	// default (all on for Flick, all off for the baselines).
	Opts *mir.Options
	// FuncSuffix distinguishes multiple configurations generated into
	// one package (e.g. "XDR", "Naive").
	FuncSuffix string
	// SkipDecls omits the presented type declarations (set when another
	// configuration in the same package already emitted them).
	SkipDecls bool
	// EmitRPC adds client stubs and a server dispatcher on top of the
	// marshal/unmarshal functions.
	EmitRPC bool
	// Surfaces selects the presentation surfaces emitted over the
	// shared marshal core when EmitRPC is set, in order. Nil means
	// sync only — the classic blocking presentation.
	Surfaces []Surface
	// SurfacesOnly emits only the surface shells (methods and their
	// support types) for an interface whose marshal functions, client
	// type, server interface, and dispatcher another configuration in
	// the same package already emitted. Used to add e.g. the async
	// surface to an existing generated package without duplicating the
	// wire code.
	SurfacesOnly bool
	// Stats, when non-nil, collects the optimizer counters of every
	// stub compiled in this run (the `flick -stats` report).
	Stats *Stats
	// Verify selects how much stage-boundary verification runs on each
	// post-optimize MIR program. The zero value is verify.On.
	Verify verify.Mode
	// ZeroCopy routes prover-approved byte regions through the
	// runtime's alias paths: marshal-side PutBytesZC (vectored send)
	// and decode-side AliasNext (arena-borrowed views). Only regions
	// whose MIR alias proof survives the zerocopy verifier are emitted
	// this way; requires the memcpy optimization (there is no bulk op
	// to alias without it).
	ZeroCopy bool
}

// Stats aggregates compiler-side optimization counters for one
// generation run: per-stub mir counters plus their total. It is what
// `flick -stats` prints — the paper's §3 optimizations (grouped space
// checks, chunks, bulk copies, inlining) as observable numbers.
type Stats struct {
	Total mir.Stats
	Stubs []StubStats
	// Verify accumulates the stage-boundary verifier coverage counters
	// (MINT nodes, PRES-C stubs, MIR programs and chunk layouts checked).
	Verify verify.Counters
}

// StubStats is one stub's optimizer counters (all of its marshal and
// unmarshal programs: request, reply, exceptions).
type StubStats struct {
	Stub string
	S    mir.Stats
}

// Report renders an aligned per-stub table with a total row.
func (s *Stats) Report() string {
	var b strings.Builder
	rows := make([][2]string, 0, len(s.Stubs)+1)
	line := func(name string, st mir.Stats) {
		rows = append(rows, [2]string{name, fmt.Sprintf(
			"%5d  %6d → %-5d %9d  %6d %6d %5d %5d  %4d",
			st.Programs, st.SpaceChecksBefore, st.SpaceChecksAfter,
			st.SpaceChecksEliminated(), st.Chunks, st.ChunkItems,
			st.BulkArrays, st.InlinedAggregates, st.OutOfLineSubs)})
	}
	for _, st := range s.Stubs {
		line(st.Stub, st.S)
	}
	line("TOTAL", s.Total)
	width := len("stub")
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	fmt.Fprintf(&b, "%-*s  %5s  %14s %9s  %6s %6s %5s %5s  %4s\n",
		width, "stub", "progs", "checks in→out", "hoisted", "chunks", "items", "bulk", "inl", "subs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", width, r[0], r[1])
	}
	return b.String()
}

func (c Config) options() mir.Options {
	if c.Opts != nil {
		return *c.Opts
	}
	if c.Style == StyleFlick {
		return mir.AllOptimizations()
	}
	return mir.NoOptimizations()
}

// Generate renders the presentation as one Go source file.
func Generate(f *presc.File, cfg Config) (string, error) {
	if cfg.ZeroCopy && !cfg.options().Memcpy {
		return "", fmt.Errorf("gostub: -zerocopy requires the memcpy optimization (no bulk regions to alias without it)")
	}
	e := &emitter{
		cfg:     cfg,
		opts:    cfg.options(),
		big:     cfg.Format.Order() == wire.BigEndian,
		checked: cfg.Style != StyleFlick,
		vtbl:    cfg.Style == StylePowerRPC,
		zc:      cfg.ZeroCopy,
		subSeen: map[string]bool{},
	}
	e.b = &strings.Builder{}
	return e.file(f)
}

type emitter struct {
	cfg     Config
	opts    mir.Options
	big     bool
	checked bool
	vtbl    bool

	// zc emits the zero-copy call shapes (PutBytesZC / AliasNext) for
	// regions carrying a verifier-approved alias-safe proof.
	zc bool

	b       *strings.Builder
	indent  int
	tmp     int
	subSeen map[string]bool
	subBuf  strings.Builder
	// lenVars maps a counted value's path to the local holding its
	// just-decoded element count (unmarshal only).
	lenVars map[string]string
	// zcVals marks counted values whose decode-side bulk aliases the
	// receive arena, so their length items skip the make (unmarshal
	// only, -zerocopy only).
	zcVals map[string]bool
	// refMap rebinds ref roots (subprogram "v", loop elements).
	refMap map[string]string
	// retErr is the statement sequence aborting the current function on
	// decoder error.
	retErr string
	// curProg is the program whose ops are being emitted (for sub-call
	// name resolution).
	curProg *mir.Program

	usesBinary  bool
	usesMath    bool
	usesContext bool
}

func (e *emitter) pf(format string, args ...any) {
	for range e.indent {
		e.b.WriteByte('\t')
	}
	fmt.Fprintf(e.b, format, args...)
	e.b.WriteByte('\n')
}

func (e *emitter) ord() string {
	if e.big {
		return "BE"
	}
	return "LE"
}

func (e *emitter) binOrd() string {
	if e.big {
		return "binary.BigEndian"
	}
	return "binary.LittleEndian"
}

func (e *emitter) newTmp(prefix string) string {
	e.tmp++
	return fmt.Sprintf("%s%d", prefix, e.tmp)
}

// file drives whole-file generation.
func (e *emitter) file(f *presc.File) (string, error) {
	var body strings.Builder
	// Generate stub bodies first so import usage is known. In
	// surfaces-only mode the marshal core already exists elsewhere in
	// the package; only the surface shells are rendered.
	if !e.cfg.SurfacesOnly {
		for _, stub := range f.Stubs {
			src, err := e.stubFuncs(stub)
			if err != nil {
				return "", fmt.Errorf("gostub: stub %s: %w", stub.Name, err)
			}
			body.WriteString(src)
		}
	}
	if e.cfg.EmitRPC {
		// Client stubs and server dispatch, one set per interface.
		var order []string
		byIface := map[string][]*presc.Stub{}
		for _, stub := range f.Stubs {
			if _, seen := byIface[stub.Interface]; !seen {
				order = append(order, stub.Interface)
			}
			byIface[stub.Interface] = append(byIface[stub.Interface], stub)
		}
		for _, iface := range order {
			src, err := e.rpcFuncs(iface, byIface[iface])
			if err != nil {
				return "", fmt.Errorf("gostub: interface %s: %w", iface, err)
			}
			body.WriteString(src)
		}
	}

	var out strings.Builder
	out.WriteString("// Code generated by flick (" + e.cfg.Style.String() + "/" +
		e.cfg.Format.Name() + "). DO NOT EDIT.\n\n")
	out.WriteString("package " + e.cfg.Package + "\n\n")
	out.WriteString("import (\n")
	if e.usesContext {
		out.WriteString("\t\"context\"\n")
	}
	if e.usesBinary {
		out.WriteString("\t\"encoding/binary\"\n")
	}
	if e.usesMath {
		out.WriteString("\t\"math\"\n")
	}
	if e.usesContext || e.usesBinary || e.usesMath {
		// Separate the standard-library group from flick/rt; gofmt
		// drops the blank line when that group is empty.
		out.WriteString("\n")
	}
	out.WriteString("\t\"flick/rt\"\n)\n\n")
	if !e.cfg.SkipDecls && !e.cfg.SurfacesOnly {
		out.WriteString("// ObjectKey is an opaque object reference.\ntype ObjectKey = []byte\n\n")
		if decls, ok := f.Decls.(string); ok {
			out.WriteString(decls)
		}
	}
	out.WriteString(body.String())
	out.WriteString(e.subBuf.String())
	// Every function ends with a blank line; the file ends with one
	// newline.
	src := strings.TrimRight(out.String(), "\n") + "\n"
	if _, err := parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution); err != nil {
		// The emitter produced invalid Go; surface the raw text for
		// diagnosis.
		return src, fmt.Errorf("gostub: generated code does not parse: %w", err)
	}
	return src, nil
}

// stubPrefix builds the generated function name prefix for a stub.
func stubPrefix(s *presc.Stub) string {
	return strings.ReplaceAll(s.Name, "_", "")
}

func (e *emitter) stubFuncs(s *presc.Stub) (string, error) {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	var out strings.Builder

	if e.cfg.Stats != nil {
		// Collect this stub's optimizer counters in a private sink, then
		// fold them into the run-wide report when the stub is done.
		per := &mir.Stats{}
		saved := e.opts.Stats
		e.opts.Stats = per
		defer func() {
			e.opts.Stats = saved
			e.cfg.Stats.Stubs = append(e.cfg.Stats.Stubs, StubStats{Stub: s.Name, S: *per})
			e.cfg.Stats.Total.Add(*per)
		}()
	}

	reqRoots := rootsOf(s.RequestParams(), nil)
	repRoots := rootsOf(s.ReplyParams(), s.Result)

	if e.cfg.EmitRPC {
		// The operation's call descriptor: every surface's shell passes
		// it to the runtime's single call path.
		out.WriteString(opDecl(s, prefix))
	}

	// Request marshal.
	src, err := e.marshalFunc("Marshal"+prefix+"Request", reqRoots)
	if err != nil {
		return "", err
	}
	out.WriteString(src)

	// Request unmarshal (server side).
	src, err = e.unmarshalFunc("Unmarshal"+prefix+"Request", reqRoots)
	if err != nil {
		return "", err
	}
	out.WriteString(src)

	if s.Stream {
		// Stream operations have no single reply: the result type is
		// the chunk, marshaled without a status word (chunks ride the
		// stream envelope, and stream errors travel as error frames,
		// not exception replies).
		chunkRoots := []root{{"ret", s.Result.Reply}}
		src, err = e.marshalFunc("Marshal"+prefix+"Chunk", chunkRoots)
		if err != nil {
			return "", err
		}
		out.WriteString(src)
		src, err = e.unmarshalFunc("Unmarshal"+prefix+"Chunk", chunkRoots)
		if err != nil {
			return "", err
		}
		out.WriteString(src)
		return out.String(), nil
	}

	if !s.Oneway {
		// Reply marshal: status 0 + results.
		src, err = e.replyMarshalFunc("Marshal"+prefix+"Reply", repRoots)
		if err != nil {
			return "", err
		}
		out.WriteString(src)
		// Exception marshals.
		for i, exName := range s.ExceptionNames {
			src, err = e.exceptionMarshalFunc(
				"Marshal"+prefix+"Err"+strings.ReplaceAll(exName, "_", ""),
				uint32(i+1), s.ExceptionPres[i])
			if err != nil {
				return "", err
			}
			out.WriteString(src)
		}
		// Reply unmarshal: status switch over results and exceptions.
		src, err = e.replyUnmarshalFunc("Unmarshal"+prefix+"Reply", repRoots, s)
		if err != nil {
			return "", err
		}
		out.WriteString(src)
	}
	return out.String(), nil
}

type root struct {
	name string
	pres *pres.Node
}

func rootsOf(params []*presc.ParamPres, result *presc.ParamPres) []root {
	var roots []root
	if result != nil && result.Reply != nil {
		roots = append(roots, root{"ret", result.Reply})
	}
	for _, p := range params {
		n := p.Request
		if n == nil {
			n = p.Reply
		}
		roots = append(roots, root{p.Name, n})
	}
	return roots
}

// paramDecl renders a marshal-function parameter for a root: aggregates
// pass by pointer.
func paramDecl(r root) (decl, refExpr string) {
	ct := ctypeOf(r.pres)
	switch r.pres.Resolve().Kind {
	case pres.StructKind, pres.UnionKind, pres.FixedArrayKind:
		return r.name + " *" + ct, r.name
	default:
		return r.name + " " + ct, r.name
	}
}

func ctypeOf(n *pres.Node) string {
	if s, ok := n.Resolve().CType.(string); ok {
		return s
	}
	return "any"
}

// pointerRootMap maps pointer-passed roots to their deref spelling so
// nested ops (including out-of-line calls) address them correctly.
func pointerRootMap(roots []root) map[string]string {
	m := map[string]string{}
	for _, r := range roots {
		switch r.pres.Resolve().Kind {
		case pres.StructKind, pres.UnionKind, pres.FixedArrayKind:
			m[r.name] = "(*" + r.name + ")"
		}
	}
	return m
}

func (e *emitter) lowerRoots(name string, dir mir.Dir, roots []root) (*mir.Program, error) {
	mroots := make([]mir.Root, len(roots))
	for i, r := range roots {
		mroots[i] = mir.Root{Name: r.name, Pres: r.pres}
	}
	prog, err := mir.Lower(dir, mroots, e.cfg.Format, e.opts)
	if err != nil {
		return nil, err
	}
	// Stage boundary: the optimized program must satisfy the emitter's
	// invariants (space-check dominance, chunk layout, bulk identity)
	// before any code is generated from it.
	var vc *verify.Counters
	if e.cfg.Stats != nil {
		vc = &e.cfg.Stats.Verify
	}
	if fs := verify.MIR(prog, e.cfg.Format, name, e.cfg.Verify, vc); len(fs) > 0 {
		return nil, fs.AsError()
	}
	// The zero-copy proofs get the same treatment: the emitter only
	// trusts an alias-safe proof the verifier re-derived.
	if fs := verify.ZeroCopy(prog, e.cfg.Format, name, e.cfg.Verify, vc); len(fs) > 0 {
		return nil, fs.AsError()
	}
	return prog, nil
}

func (e *emitter) marshalFunc(name string, roots []root) (string, error) {
	prog, err := e.lowerRoots(name, mir.Marshal, roots)
	if err != nil {
		return "", err
	}
	e.b.Reset()
	params := []string{"e *rt.Encoder"}
	for _, r := range roots {
		decl, _ := paramDecl(r)
		params = append(params, decl)
	}
	e.pf("// %s encodes the message payload (%s class, %s).", name, prog.Class, e.cfg.Format.Name())
	e.pf("func %s(%s) {", name, strings.Join(params, ", "))
	e.indent++
	e.beginBody(mir.Marshal, pointerRootMap(roots))
	e.curProg = prog
	if err := e.ops(prog.Ops, mir.Marshal); err != nil {
		return "", err
	}
	e.indent--
	e.pf("}")
	e.pf("")
	if err := e.emitSubs(prog, mir.Marshal); err != nil {
		return "", err
	}
	return e.b.String(), nil
}

func (e *emitter) unmarshalFunc(name string, roots []root) (string, error) {
	prog, err := e.lowerRoots(name, mir.Unmarshal, roots)
	if err != nil {
		return "", err
	}
	e.b.Reset()
	var results []string
	for _, r := range roots {
		results = append(results, r.name+" "+ctypeOf(r.pres))
	}
	results = append(results, "err error")
	e.pf("// %s decodes the message payload (%s class, %s).", name, prog.Class, e.cfg.Format.Name())
	e.pf("func %s(d *rt.Decoder) (%s) {", name, strings.Join(results, ", "))
	e.indent++
	e.beginBody(mir.Unmarshal, nil)
	e.retErr = "err = d.Err()\nreturn"
	e.curProg = prog
	if err := e.ops(prog.Ops, mir.Unmarshal); err != nil {
		return "", err
	}
	e.pf("err = d.Err()")
	e.pf("return")
	e.indent--
	e.pf("}")
	e.pf("")
	if err := e.emitSubs(prog, mir.Unmarshal); err != nil {
		return "", err
	}
	return e.b.String(), nil
}

// replyMarshalFunc writes the success reply: status 0 followed by the
// result and out parameters.
func (e *emitter) replyMarshalFunc(name string, roots []root) (string, error) {
	prog, err := e.lowerRoots(name, mir.Marshal, roots)
	if err != nil {
		return "", err
	}
	e.b.Reset()
	params := []string{"e *rt.Encoder"}
	for _, r := range roots {
		decl, _ := paramDecl(r)
		params = append(params, decl)
	}
	e.pf("// %s encodes a successful reply (status 0).", name)
	e.pf("func %s(%s) {", name, strings.Join(params, ", "))
	e.indent++
	e.beginBody(mir.Marshal, pointerRootMap(roots))
	e.curProg = prog
	e.emitStatus(0)
	if err := e.ops(prog.Ops, mir.Marshal); err != nil {
		return "", err
	}
	e.indent--
	e.pf("}")
	e.pf("")
	if err := e.emitSubs(prog, mir.Marshal); err != nil {
		return "", err
	}
	return e.b.String(), nil
}

func (e *emitter) exceptionMarshalFunc(name string, status uint32, body *pres.Node) (string, error) {
	prog, err := e.lowerRoots(name, mir.Marshal, []root{{"ex", body}})
	if err != nil {
		return "", err
	}
	e.b.Reset()
	e.pf("// %s encodes an exception reply (status %d).", name, status)
	e.pf("func %s(e *rt.Encoder, ex *%s) {", name, ctypeOf(body))
	e.indent++
	e.beginBody(mir.Marshal, map[string]string{"ex": "(*ex)"})
	e.curProg = prog
	e.emitStatus(status)
	if err := e.ops(prog.Ops, mir.Marshal); err != nil {
		return "", err
	}
	e.indent--
	e.pf("}")
	e.pf("")
	if err := e.emitSubs(prog, mir.Marshal); err != nil {
		return "", err
	}
	return e.b.String(), nil
}

func (e *emitter) emitStatus(v uint32) {
	if e.checked {
		e.pf("%s(%d)", e.putName(4, true), v)
		return
	}
	e.pf("e.Grow(4)")
	e.pf("e.PutU32%s(%d)", e.ord(), v)
}

func (e *emitter) replyUnmarshalFunc(name string, roots []root, s *presc.Stub) (string, error) {
	prog, err := e.lowerRoots(name, mir.Unmarshal, roots)
	if err != nil {
		return "", err
	}
	e.b.Reset()
	var results []string
	for _, r := range roots {
		results = append(results, r.name+" "+ctypeOf(r.pres))
	}
	results = append(results, "err error")
	e.pf("// %s decodes a reply: results on status 0, a declared", name)
	e.pf("// exception (returned as err) otherwise.")
	e.pf("func %s(d *rt.Decoder) (%s) {", name, strings.Join(results, ", "))
	e.indent++
	e.beginBody(mir.Unmarshal, nil)
	e.retErr = "err = d.Err()\nreturn"
	e.curProg = prog
	if e.checked {
		e.pf("st := d.U32%sC()", e.ord())
	} else {
		e.pf("if !d.Ensure(4) {")
		e.emitRetErr()
		e.pf("}")
		e.pf("st := d.U32%s()", e.ord())
	}
	e.pf("switch st {")
	e.pf("case 0:")
	e.indent++
	if err := e.ops(prog.Ops, mir.Unmarshal); err != nil {
		return "", err
	}
	e.pf("err = d.Err()")
	e.pf("return")
	e.indent--
	var exProgs []*mir.Program
	for i, exName := range s.ExceptionNames {
		exProg, lerr := e.lowerRoots(exName, mir.Unmarshal, []root{{"ex", s.ExceptionPres[i]}})
		if lerr != nil {
			return "", lerr
		}
		exProgs = append(exProgs, exProg)
		e.pf("case %d:", i+1)
		e.indent++
		e.curProg = exProg
		e.pf("ex := new(%s)", ctypeOf(s.ExceptionPres[i]))
		saved := e.refMap
		e.refMap = map[string]string{"ex": "(*ex)"}
		for k, v := range saved {
			e.refMap[k] = v
		}
		if err := e.ops(exProg.Ops, mir.Unmarshal); err != nil {
			return "", err
		}
		e.refMap = saved
		e.pf("if d.Err() != nil {")
		e.emitRetErr()
		e.pf("}")
		e.pf("err = ex")
		e.pf("return")
		e.indent--
		_ = exName
	}
	e.pf("default:")
	e.indent++
	e.pf("err = d.Fail(rt.ErrBadUnion)")
	e.pf("return")
	e.indent--
	e.pf("}")
	e.indent--
	e.pf("}")
	e.pf("")
	if err := e.emitSubs(prog, mir.Unmarshal); err != nil {
		return "", err
	}
	for _, exProg := range exProgs {
		if err := e.emitSubs(exProg, mir.Unmarshal); err != nil {
			return "", err
		}
	}
	return e.b.String(), nil
}

func (e *emitter) beginBody(dir mir.Dir, refMap map[string]string) {
	e.lenVars = map[string]string{}
	if e.zc {
		e.zcVals = map[string]bool{}
	}
	if refMap == nil {
		refMap = map[string]string{}
	}
	e.refMap = refMap
}

func (e *emitter) emitRetErr() {
	e.indent++
	for _, line := range strings.Split(e.retErr, "\n") {
		e.pf("%s", line)
	}
	e.indent--
}

// emitSubs renders the out-of-line routines of a program into subBuf.
func (e *emitter) emitSubs(prog *mir.Program, dir mir.Dir) error {
	for idx, sub := range prog.Subs {
		name := e.subFuncName(prog, idx, dir)
		if e.subSeen[name] {
			continue
		}
		e.subSeen[name] = true

		saved := e.b
		savedLen, savedRef, savedRet := e.lenVars, e.refMap, e.retErr
		e.b = &strings.Builder{}
		e.beginBody(dir, map[string]string{"v": "(*v)"})
		savedProg := e.curProg
		e.curProg = prog

		ct := ctypeOf(sub.Pres)
		if dir == mir.Marshal {
			e.pf("func %s(e *rt.Encoder, v *%s) {", name, ct)
			e.indent++
			if err := e.ops(sub.Ops, dir); err != nil {
				return err
			}
			e.indent--
			e.pf("}")
			e.pf("")
		} else {
			e.retErr = "return false"
			e.pf("func %s(d *rt.Decoder, v *%s) bool {", name, ct)
			e.indent++
			if err := e.ops(sub.Ops, dir); err != nil {
				return err
			}
			e.pf("return d.Err() == nil")
			e.indent--
			e.pf("}")
			e.pf("")
		}
		e.subBuf.WriteString(e.b.String())
		e.b = saved
		e.curProg = savedProg
		e.lenVars, e.refMap, e.retErr = savedLen, savedRef, savedRet
	}
	return nil
}

func (e *emitter) subFuncName(prog *mir.Program, idx int, dir mir.Dir) string {
	base := prog.Subs[idx].Name
	if dir == mir.Marshal {
		return "xm" + e.cfg.FuncSuffix + base
	}
	return "xu" + e.cfg.FuncSuffix + base
}
