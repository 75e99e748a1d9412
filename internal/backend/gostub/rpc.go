package gostub

import (
	"fmt"
	"sort"
	"strings"

	"flick/internal/pgen"
	"flick/internal/pres"
	"flick/internal/presc"
)

// protoExpr returns the rt.Protocol constructor for the configured wire
// format.
func (e *emitter) protoExpr() string {
	switch e.cfg.Format.Name() {
	case "xdr":
		return "rt.ONC{}"
	case "cdr-be":
		return "rt.GIOP{}"
	case "cdr-le":
		return "rt.GIOP{Little: true}"
	case "mach3":
		return "rt.Mach{}"
	case "fluke":
		return "rt.Fluke{}"
	default:
		return "rt.ONC{}"
	}
}

func (e *emitter) demuxByName() bool {
	n := e.cfg.Format.Name()
	return n == "cdr-be" || n == "cdr-le"
}

// rpcFuncs renders the client type with the configured presentation
// surfaces' methods, the server implementation interface, and the
// Register function installing the dispatch loop. Marshal code is
// never rendered here — every surface calls the functions the shared
// MIR walk emitted.
func (e *emitter) rpcFuncs(iface string, stubs []*presc.Stub) (string, error) {
	e.b.Reset()
	base := pgen.GoName(iface) + e.cfg.FuncSuffix
	clientType := base + "Client"
	serverIface := base + "Server"

	// --- Client ---
	if !e.cfg.SurfacesOnly {
		e.pf("// %s invokes %s operations over a connection.", clientType, iface)
		e.pf("type %s struct {", clientType)
		e.indent++
		e.pf("C *rt.Client")
		e.indent--
		e.pf("}")
		e.pf("")
		e.pf("// New%s wraps conn with the %s message protocol.", clientType, e.cfg.Format.Name())
		e.pf("func New%s(conn rt.Conn) *%s {", clientType, clientType)
		e.indent++
		e.pf("c := rt.NewClient(conn, %s)", e.protoExpr())
		if len(stubs) > 0 {
			e.pf("c.Prog = %d", stubs[0].Prog)
			e.pf("c.Vers = %d", stubs[0].Vers)
		}
		e.pf("return &%s{C: c}", clientType)
		e.indent--
		e.pf("}")
		e.pf("")
	}

	for _, sf := range e.surfaces() {
		if err := sf.clientFuncs(e, clientType, stubs); err != nil {
			return "", err
		}
	}

	if e.cfg.SurfacesOnly {
		return e.b.String(), nil
	}

	// --- Server interface ---
	e.pf("// %s is the interface a %s implementation provides.", serverIface, iface)
	e.pf("type %s interface {", serverIface)
	e.indent++
	for _, s := range stubs {
		e.pf("%s", serverIfaceLine(s, e.cfg.FuncSuffix))
	}
	e.indent--
	e.pf("}")
	e.pf("")

	// Sending halves for stream operations (referenced by both the
	// interface above and the dispatch arms below).
	for _, s := range stubs {
		if s.Stream {
			e.serverStreamType(s)
		}
	}

	// --- Dispatch ---
	if err := e.dispatchFunc(base, serverIface, stubs); err != nil {
		return "", err
	}
	return e.b.String(), nil
}

// callArgs renders the argument expressions passed from method parameters
// to the request-marshal function (aggregates by address).
func callArgs(params []*presc.ParamPres) []string {
	var out []string
	for _, p := range params {
		n := p.Request
		if n == nil {
			n = p.Reply
		}
		name := p.Name
		switch n.Resolve().Kind {
		case pres.StructKind, pres.UnionKind, pres.FixedArrayKind:
			out = append(out, "&"+name)
		default:
			out = append(out, name)
		}
	}
	return out
}

// opDecl renders the operation's package-level rt.Op descriptor: the
// presentation facts (opcode, name, oneway, and the IDL's
// //flick:idempotent annotation, which gates retries and hedging) the
// runtime call path needs. False flags are left out.
func opDecl(s *presc.Stub, prefix string) string {
	fields := fmt.Sprintf("Proc: %d, Name: %q", s.OpCode, s.OpName)
	if s.Oneway {
		fields += ", Oneway: true"
	}
	if s.Idempotent {
		fields += ", Idempotent: true"
	}
	return fmt.Sprintf("// %sOp describes the %s operation to the runtime.\nvar %sOp = rt.Op{%s}\n\n",
		prefix, s.OpName, prefix, fields)
}

// callMethod renders one blocking client method: the sync surface's
// <Op> (ctx false, passing a nil context) or the ctx surface's <Op>Ctx
// (ctx true, a caller context ahead of the request parameters).
func (e *emitter) callMethod(clientType string, s *presc.Stub, ctx bool) {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	goOp := pgen.GoName(s.Op)
	ctxArg := "nil"
	if ctx {
		e.usesContext = true
		ctxArg = "ctx"
		params := append([]string{"ctx context.Context"}, inParamDecls(s)...)
		e.pf("// %sCtx invokes the %s operation under a caller context:", goOp, s.Op)
		e.pf("// the context's deadline travels on the wire and bounds the")
		e.pf("// server-side work, its trace is continued, and cancellation")
		e.pf("// aborts the reply wait while a cancel frame releases the")
		e.pf("// server-side work.")
		e.pf("func (c *%s) %sCtx(%s) (%s) {", clientType, goOp, strings.Join(params, ", "), strings.Join(replyResultDecls(s), ", "))
	} else {
		e.pf("// %s invokes the %s operation.", goOp, s.Op)
		e.pf("func (c *%s) %s {", clientType, s.CDecl.(string))
	}
	e.indent++
	if s.Oneway {
		e.pf("_, err = c.C.Do(%s, &%sOp, func(e *rt.Encoder) {", ctxArg, prefix)
	} else {
		e.pf("var d *rt.Decoder")
		e.pf("d, err = c.C.Do(%s, &%sOp, func(e *rt.Encoder) {", ctxArg, prefix)
	}
	e.indent++
	e.pf("Marshal%sRequest(%s)", prefix, strings.Join(append([]string{"e"}, callArgs(s.RequestParams())...), ", "))
	e.indent--
	e.pf("})")
	e.pf("if err != nil {")
	e.indent++
	e.pf("return")
	e.indent--
	e.pf("}")
	if !s.Oneway {
		e.pf("%s = Unmarshal%sReply(d)", strings.Join(replyResultNames(s), ", "), prefix)
		// Pooled buffer-ownership contract: the reply decoder belongs
		// to this call and goes back to the runtime pool once the
		// results are unmarshaled (they never alias the wire buffer).
		e.pf("d.Release()")
	}
	e.pf("return")
	e.indent--
	e.pf("}")
	e.pf("")
}

func (e *emitter) dispatchFunc(base, serverIface string, stubs []*presc.Stub) error {
	e.pf("// Register%s installs the %s dispatcher on s. The dispatch", base, base)
	e.pf("// decodes the operation discriminator a machine word at a time")
	e.pf("// (Flick's message demultiplexing).")
	e.pf("func Register%s(s *rt.Server, impl %s) {", base, serverIface)
	e.indent++
	prog, vers := uint32(0), uint32(0)
	if len(stubs) > 0 {
		prog, vers = stubs[0].Prog, stubs[0].Vers
	}
	e.pf("s.Register(%d, %d, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {", prog, vers)
	e.indent++
	if e.demuxByName() {
		if err := e.nameDemux(stubs); err != nil {
			return err
		}
	} else {
		e.pf("switch h.Proc {")
		for _, s := range stubs {
			e.pf("case %d:", s.OpCode)
			e.indent++
			if err := e.dispatchArm(s); err != nil {
				return err
			}
			e.indent--
		}
		e.pf("default:")
		e.indent++
		e.pf("return rt.ErrNoSuchOp")
		e.indent--
		e.pf("}")
	}
	e.indent--
	e.pf("})")
	e.indent--
	e.pf("}")
	e.pf("")
	return nil
}

// nameDemux emits nested word-size switches over the operation name: the
// paper's discriminator hashing, applied to GIOP's string discriminators.
func (e *emitter) nameDemux(stubs []*presc.Stub) error {
	byLen := map[int][]*presc.Stub{}
	for _, s := range stubs {
		byLen[len(s.OpName)] = append(byLen[len(s.OpName)], s)
	}
	var lens []int
	for l := range byLen {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	e.pf("op := h.OpName")
	e.pf("switch len(op) {")
	for _, l := range lens {
		e.pf("case %d:", l)
		e.indent++
		if err := e.nameDemuxWords(byLen[l], 0, l); err != nil {
			return err
		}
		e.indent--
	}
	e.pf("}")
	e.pf("return rt.ErrNoSuchOp")
	return nil
}

func (e *emitter) nameDemuxWords(stubs []*presc.Stub, off, total int) error {
	if off >= total {
		// Full name matched (names are unique per interface).
		if len(stubs) != 1 {
			return fmt.Errorf("gostub: ambiguous operation names %q", stubs[0].OpName)
		}
		return e.dispatchArm(stubs[0])
	}
	byWord := map[uint32][]*presc.Stub{}
	var order []uint32
	for _, s := range stubs {
		w := word4(s.OpName, off)
		if _, seen := byWord[w]; !seen {
			order = append(order, w)
		}
		byWord[w] = append(byWord[w], s)
	}
	e.pf("switch rt.Word4(op, %d) {", off)
	for _, w := range order {
		group := byWord[w]
		e.pf("case 0x%08x: // %q", w, safeChunk(group[0].OpName, off))
		e.indent++
		if err := e.nameDemuxWords(group, off+4, total); err != nil {
			return err
		}
		e.indent--
	}
	e.pf("}")
	if off > 0 {
		return nil
	}
	return nil
}

func word4(s string, off int) uint32 {
	var w uint32
	for i := 0; i < 4 && off+i < len(s); i++ {
		w |= uint32(s[off+i]) << (24 - 8*i)
	}
	return w
}

func safeChunk(s string, off int) string {
	end := off + 4
	if end > len(s) {
		end = len(s)
	}
	if off >= len(s) {
		return ""
	}
	return s[off:end]
}

// dispatchArm decodes arguments, invokes the implementation, and encodes
// the reply for one operation.
func (e *emitter) dispatchArm(s *presc.Stub) error {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	if !e.demuxByName() {
		// Numeric-demux protocols (ONC, Mach, Fluke) leave h.OpName
		// empty after header decode; label the request so server
		// metrics and traces report real operation names.
		e.pf("h.OpName = %q", s.OpName)
	}
	if s.Oneway {
		// Some protocols (ONC) cannot flag oneway calls on the wire;
		// the dispatcher knows from the IDL that no reply is due.
		e.pf("h.OneWay = true")
	}
	reqs := s.RequestParams()
	var argNames []string
	for _, p := range reqs {
		argNames = append(argNames, "a_"+p.Name)
	}
	if len(reqs) > 0 {
		e.pf("%s, argErr := Unmarshal%sRequest(d)", strings.Join(argNames, ", "), prefix)
	} else {
		e.pf("argErr := Unmarshal%sRequest(d)", prefix)
	}
	e.pf("if argErr != nil {")
	e.indent++
	e.pf("return argErr")
	e.indent--
	e.pf("}")

	if s.Stream {
		// Stream operations push chunks over the oneway path: the
		// single auto-reply is suppressed only after arguments decode,
		// so a malformed request still gets a system-error reply.
		var callIn []string
		for _, p := range reqs {
			callIn = append(callIn, "a_"+p.Name)
		}
		prefixT := stubPrefix(s) + e.cfg.FuncSuffix
		e.pf("h.OneWay = true")
		e.pf("sn := rt.NewStreamSender(h)")
		e.pf("workErr := impl.%s(%s)", pgen.GoName(s.Op),
			strings.Join(append(callIn, "&"+prefixT+"ServerStream{st: sn}"), ", "))
		e.pf("sn.Finish(workErr)")
		e.pf("return nil")
		return nil
	}

	// Invoke the work function.
	var results []string
	if s.Result != nil {
		results = append(results, "r_ret")
	}
	for _, p := range s.ReplyParams() {
		results = append(results, "r_"+p.Name)
	}
	results = append(results, "workErr")
	// inout params appear in both argNames (inputs) and results.
	var callIn []string
	for _, p := range reqs {
		callIn = append(callIn, "a_"+p.Name)
	}
	e.pf("%s := impl.%s(%s)", strings.Join(results, ", "), pgen.GoName(s.Op), strings.Join(callIn, ", "))
	e.pf("if workErr != nil {")
	e.indent++
	for i, exName := range s.ExceptionNames {
		exType := ctypeOf(s.ExceptionPres[i])
		e.pf("if ex, ok := workErr.(*%s); ok {", exType)
		e.indent++
		e.pf("Marshal%sErr%s(e, ex)", prefix, strings.ReplaceAll(exName, "_", ""))
		e.pf("return nil")
		e.indent--
		e.pf("}")
	}
	e.pf("return workErr")
	e.indent--
	e.pf("}")
	if s.Oneway {
		e.pf("return nil")
		return nil
	}
	// Marshal the success reply (aggregates by address).
	var repArgs []string
	if s.Result != nil {
		if isAggregate(s.Result.Reply) {
			repArgs = append(repArgs, "&r_ret")
		} else {
			repArgs = append(repArgs, "r_ret")
		}
	}
	for _, p := range s.ReplyParams() {
		if isAggregate(p.Reply) {
			repArgs = append(repArgs, "&r_"+p.Name)
		} else {
			repArgs = append(repArgs, "r_"+p.Name)
		}
	}
	e.pf("Marshal%sReply(%s)", prefix, strings.Join(append([]string{"e"}, repArgs...), ", "))
	e.pf("return nil")
	return nil
}

func isAggregate(n *pres.Node) bool {
	if n == nil {
		return false
	}
	switch n.Resolve().Kind {
	case pres.StructKind, pres.UnionKind, pres.FixedArrayKind:
		return true
	}
	return false
}
