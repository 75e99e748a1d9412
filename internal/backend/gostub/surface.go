package gostub

import (
	"fmt"
	"strings"

	"flick/internal/pgen"
	"flick/internal/presc"
)

// A Surface is one presentation of the generated client API over the
// shared marshal/unmarshal core: the MIR walk renders the wire code
// exactly once per operation, and each surface contributes only its
// call-shape shell (the paper's AOI→PRES-C flexibility claim, applied
// to call styles instead of language mappings).
//
// Surfaces are additive: every surface in Config.Surfaces emits its
// methods onto the same generated client type, so one client value
// exposes Sum, SumAsync, and FetchStream side by side. A surface never
// emits marshal code — it calls the Marshal*/Unmarshal* functions the
// core emitted — which is what keeps N surfaces O(N) shells over O(1)
// optimized wire code.
type Surface interface {
	// Name is the surface's selector spelling ("sync", "async",
	// "stream") as accepted by ParseSurfaces.
	Name() string
	// clientFuncs renders this surface's client-side methods (and any
	// per-operation support types) for the interface's stubs.
	clientFuncs(e *emitter, clientType string, stubs []*presc.Stub) error
}

// DefaultSurfaces is the classic presentation: blocking sync stubs
// only. A nil Config.Surfaces means exactly this.
func DefaultSurfaces() []Surface { return []Surface{SyncSurface{}} }

// ParseSurfaces resolves a comma-separated surface list ("sync,async")
// into Surface values, preserving order and rejecting duplicates.
func ParseSurfaces(list string) ([]Surface, error) {
	var out []Surface
	seen := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("gostub: duplicate surface %q", name)
		}
		seen[name] = true
		switch name {
		case "sync":
			out = append(out, SyncSurface{})
		case "async":
			out = append(out, AsyncSurface{})
		case "stream":
			out = append(out, StreamSurface{})
		case "ctx":
			out = append(out, CtxSurface{})
		default:
			return nil, fmt.Errorf("gostub: unknown surface %q (supported: sync, async, stream, ctx)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gostub: empty surface list")
	}
	return out, nil
}

// surfaces returns the configured surface set, defaulting to sync.
func (e *emitter) surfaces() []Surface {
	if len(e.cfg.Surfaces) == 0 {
		return DefaultSurfaces()
	}
	return e.cfg.Surfaces
}

// inParamDecls renders the request-parameter declarations of a stub's
// method signature (the "in" half of the sync signature: value-typed,
// presentation spellings).
func inParamDecls(s *presc.Stub) []string {
	var out []string
	for _, p := range s.RequestParams() {
		ct, _ := p.CType.(string)
		if ct == "" {
			n := p.Request
			if n == nil {
				n = p.Reply
			}
			ct = ctypeOf(n)
		}
		out = append(out, p.Name+" "+ct)
	}
	return out
}

// replyResultDecls renders the reply-side result declarations of a
// stub (ret first, then out/inout params with the sync signature's
// "Out" suffix for inout, then err).
func replyResultDecls(s *presc.Stub) []string {
	var out []string
	if s.Result != nil {
		ct, _ := s.Result.CType.(string)
		if ct == "" {
			ct = ctypeOf(s.Result.Reply)
		}
		out = append(out, "ret "+ct)
	}
	for _, p := range s.ReplyParams() {
		name := p.Name
		if p.Role == presc.RoleBoth {
			name += "Out"
		}
		ct, _ := p.CType.(string)
		if ct == "" {
			ct = ctypeOf(p.Reply)
		}
		out = append(out, name+" "+ct)
	}
	out = append(out, "err error")
	return out
}

// replyResultNames lists the assignment targets matching
// replyResultDecls, for the `ret, x, err = Unmarshal...Reply(d)` line.
func replyResultNames(s *presc.Stub) []string {
	var out []string
	if s.Result != nil {
		out = append(out, "ret")
	}
	for _, p := range s.ReplyParams() {
		name := p.Name
		if p.Role == presc.RoleBoth {
			name += "Out"
		}
		out = append(out, name)
	}
	out = append(out, "err")
	return out
}

// SyncSurface is the classic blocking presentation: one method per
// operation, call-and-wait over rt.Client.Do with a nil context, reply
// decoded in the caller's frame.
type SyncSurface struct{}

func (SyncSurface) Name() string { return "sync" }

func (SyncSurface) clientFuncs(e *emitter, clientType string, stubs []*presc.Stub) error {
	for _, s := range stubs {
		if s.Stream {
			// Stream operations have no single-reply shape; they are
			// presented by StreamSurface.
			continue
		}
		e.callMethod(clientType, s, false)
	}
	return nil
}

// AsyncSurface is the promise presentation: <Op>Async marshals and
// transmits immediately and returns a typed promise; the reply is
// claimed by Wait, so a caller can hold many calls in flight on one
// session (the XID multiplexer resolves them in any order).
type AsyncSurface struct{}

func (AsyncSurface) Name() string { return "async" }

func (AsyncSurface) clientFuncs(e *emitter, clientType string, stubs []*presc.Stub) error {
	for _, s := range stubs {
		if s.Stream || s.Oneway {
			// Oneway calls have nothing to resolve; streams have their
			// own surface.
			continue
		}
		e.asyncMethod(clientType, s)
	}
	return nil
}

func (e *emitter) asyncMethod(clientType string, s *presc.Stub) {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	promiseType := prefix + "Promise"
	goOp := pgen.GoName(s.Op)
	reqArgs := append([]string{"e"}, callArgs(s.RequestParams())...)

	e.pf("// %sAsync begins the %s operation without waiting for the", goOp, s.Op)
	e.pf("// reply: the request is marshaled and transmitted before this")
	e.pf("// method returns, and the promise resolves when Wait collects")
	e.pf("// the reply from the session's multiplexer.")
	e.pf("func (c *%s) %sAsync(%s) *%s {", clientType, goOp, strings.Join(inParamDecls(s), ", "), promiseType)
	e.indent++
	e.pf("return &%s{p: c.C.Go(nil, &%sOp, func(e *rt.Encoder) {", promiseType, prefix)
	e.indent++
	e.pf("Marshal%sRequest(%s)", prefix, strings.Join(reqArgs, ", "))
	e.indent--
	e.pf("})}")
	e.indent--
	e.pf("}")
	e.pf("")

	e.pf("// %s is one in-flight %s invocation.", promiseType, s.Op)
	e.pf("type %s struct {", promiseType)
	e.indent++
	e.pf("p *rt.Promise")
	e.indent--
	e.pf("}")
	e.pf("")
	e.pf("// Wait blocks until the reply arrives and decodes it. The retry")
	e.pf("// and error classification are the sync path's, applied at")
	e.pf("// resolution time; Wait settles the promise and may be called")
	e.pf("// once.")
	e.pf("func (pr *%s) Wait() (%s) {", promiseType, strings.Join(replyResultDecls(s), ", "))
	e.indent++
	e.pf("var d *rt.Decoder")
	e.pf("d, err = pr.p.Wait()")
	e.pf("if err != nil {")
	e.indent++
	e.pf("return")
	e.indent--
	e.pf("}")
	e.pf("%s = Unmarshal%sReply(d)", strings.Join(replyResultNames(s), ", "), prefix)
	// Same pooled-ownership contract as the sync stub: the decoder goes
	// back to the pool once results are unmarshaled.
	e.pf("d.Release()")
	e.pf("return")
	e.indent--
	e.pf("}")
	e.pf("")
}

// CtxSurface is the context presentation: <Op>Ctx takes a caller
// context.Context ahead of the request parameters. The context's
// deadline travels on the wire as the runtime's deadline annotation
// (the server inherits the remaining budget and sheds expired work
// before dispatch), its trace context is continued, and its
// cancellation aborts the reply wait — sending the cancel frame that
// releases the server-side work. Stream operations are skipped (the
// stream surface owns their shape; rt.Client.Stream takes a ctx at the
// runtime layer).
type CtxSurface struct{}

func (CtxSurface) Name() string { return "ctx" }

func (CtxSurface) clientFuncs(e *emitter, clientType string, stubs []*presc.Stub) error {
	for _, s := range stubs {
		if s.Stream {
			continue
		}
		e.callMethod(clientType, s, true)
	}
	return nil
}

// StreamSurface is the server-push presentation for //flick:stream
// operations: <Op>Stream sends the request once and returns a typed
// receiving half whose chunks the server pushes under a credit window.
type StreamSurface struct{}

func (StreamSurface) Name() string { return "stream" }

func (StreamSurface) clientFuncs(e *emitter, clientType string, stubs []*presc.Stub) error {
	for _, s := range stubs {
		if !s.Stream {
			continue
		}
		e.streamMethod(clientType, s)
	}
	return nil
}

// chunkDecl renders the chunk parameter declaration and marshal
// argument for a stream stub's Send method (aggregates by pointer,
// mirroring the marshal function's parameter shape).
func chunkDecl(s *presc.Stub) (decl, arg, ctype string) {
	ct, _ := s.Result.CType.(string)
	if ct == "" {
		ct = ctypeOf(s.Result.Reply)
	}
	if isAggregate(s.Result.Reply) {
		return "v *" + ct, "v", ct
	}
	return "v " + ct, "v", ct
}

func (e *emitter) streamMethod(clientType string, s *presc.Stub) {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	streamType := prefix + "Stream"
	goOp := pgen.GoName(s.Op)
	reqArgs := append([]string{"e"}, callArgs(s.RequestParams())...)
	params := append(inParamDecls(s), "window int")
	_, _, chunkType := chunkDecl(s)

	e.pf("// %sStream begins the %s server-push stream with a credit", goOp, s.Op)
	e.pf("// window of the given number of chunks. A window of 0 blocks the")
	e.pf("// server's first Send until Grant extends credit (pure")
	e.pf("// backpressure).")
	e.pf("func (c *%s) %sStream(%s) (*%s, error) {", clientType, goOp, strings.Join(params, ", "), streamType)
	e.indent++
	e.pf("st, err := c.C.Stream(nil, &%sOp, window, func(e *rt.Encoder) {", prefix)
	e.indent++
	e.pf("Marshal%sRequest(%s)", prefix, strings.Join(reqArgs, ", "))
	e.indent--
	e.pf("})")
	e.pf("if err != nil {")
	e.indent++
	e.pf("return nil, err")
	e.indent--
	e.pf("}")
	e.pf("return &%s{st: st}, nil", streamType)
	e.indent--
	e.pf("}")
	e.pf("")

	e.pf("// %s is the receiving half of a %s stream. It is not", streamType, s.Op)
	e.pf("// safe for concurrent Recv.")
	e.pf("type %s struct {", streamType)
	e.indent++
	e.pf("st *rt.ClientStream")
	e.indent--
	e.pf("}")
	e.pf("")
	e.pf("// Recv returns the next chunk; io.EOF reports a clean end of")
	e.pf("// stream, any other error a classified teardown.")
	e.pf("func (s *%s) Recv() (ret %s, err error) {", streamType, chunkType)
	e.indent++
	e.pf("var d *rt.Decoder")
	e.pf("d, err = s.st.Recv()")
	e.pf("if err != nil {")
	e.indent++
	e.pf("return")
	e.indent--
	e.pf("}")
	e.pf("ret, err = Unmarshal%sChunk(d)", prefix)
	e.pf("d.Release()")
	e.pf("return")
	e.indent--
	e.pf("}")
	e.pf("")
	e.pf("// Grant extends the server's credit window by n chunks.")
	e.pf("func (s *%s) Grant(n int) error { return s.st.Grant(n) }", streamType)
	e.pf("")
	e.pf("// Cancel tears the stream down and releases any undelivered")
	e.pf("// chunks; Recv afterwards reports the cancellation.")
	e.pf("func (s *%s) Cancel() { s.st.Cancel() }", streamType)
	e.pf("")
}

// serverStreamType emits the sending half handed to a stream
// operation's work function: a typed wrapper over rt.StreamSender that
// marshals each chunk with the shared MIR-generated code.
func (e *emitter) serverStreamType(s *presc.Stub) {
	prefix := stubPrefix(s) + e.cfg.FuncSuffix
	typeName := prefix + "ServerStream"
	decl, arg, _ := chunkDecl(s)
	e.pf("// %s is the sending half of a %s stream, handed to", typeName, s.Op)
	e.pf("// the work function by the dispatcher.")
	e.pf("type %s struct {", typeName)
	e.indent++
	e.pf("st *rt.StreamSender")
	e.indent--
	e.pf("}")
	e.pf("")
	e.pf("// Send pushes one chunk, blocking while the client's credit")
	e.pf("// window is exhausted (backpressure) and failing once the stream")
	e.pf("// is canceled or torn down.")
	e.pf("func (s *%s) Send(%s) error {", typeName, decl)
	e.indent++
	e.pf("return s.st.Send(func(e *rt.Encoder) {")
	e.indent++
	e.pf("Marshal%sChunk(e, %s)", prefix, arg)
	e.indent--
	e.pf("})")
	e.indent--
	e.pf("}")
	e.pf("")
}

// serverIfaceLine renders one operation's line in the server
// implementation interface. Non-stream operations use the presentation
// signature (CDecl); stream operations replace the reply with the
// typed sending half.
func serverIfaceLine(s *presc.Stub, suffix string) string {
	if !s.Stream {
		return s.CDecl.(string)
	}
	prefix := stubPrefix(s) + suffix
	params := append(inParamDecls(s), "st *"+prefix+"ServerStream")
	return fmt.Sprintf("%s(%s) error", pgen.GoName(s.Op), strings.Join(params, ", "))
}
