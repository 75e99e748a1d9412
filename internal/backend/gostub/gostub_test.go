package gostub_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flick"
	"flick/internal/backend/gostub"
	"flick/internal/presc"
	"flick/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

const idl = `
interface Acct {
	struct point { long x; long y; };
	exception Overdrawn { long balance; };
	typedef sequence<point> points;

	void move(in points v);
	long withdraw(in long amount, out long balance) raises (Overdrawn);
	//flick:idempotent
	long balance();
	oneway void nudge(in point p);
};
`

func compile(t *testing.T, opts flick.Options) string {
	t.Helper()
	opts.Package = "acct"
	out, err := flick.Compile("acct.idl", idl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		os.MkdirAll("testdata", 0o755)
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update)", path)
	}
	if got != string(want) {
		t.Errorf("output differs from golden %s (review and run -update)", path)
	}
}

func TestGoldenFlickXDR(t *testing.T) {
	got := compile(t, flick.Options{Format: "xdr", Style: "flick", EmitRPC: true})
	golden(t, "acct_flick_xdr.go.golden", got)
	for _, frag := range []string{
		// The optimized shape: one grow + chunk window for a fixed struct.
		"e.Grow(8)",
		"b1 := e.Next(8)",
		"binary.BigEndian.PutUint32(b1[0:]",
		// Exceptions cross as typed errors.
		"func (e *AcctOverdrawn) Error() string",
		"MarshalAcctWithdrawErrOverdrawn",
		// Client + dispatch.
		"type AcctClient struct",
		"func RegisterAcct(s *rt.Server, impl AcctServer)",
		"switch h.Proc {",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("flick/xdr output missing %q", frag)
		}
	}
}

func TestGoldenRpcgenXDR(t *testing.T) {
	got := compile(t, flick.Options{Format: "xdr", Style: "rpcgen", EmitRPC: false, SkipDecls: true, FuncSuffix: "N"})
	golden(t, "acct_rpcgen_xdr.go.golden", got)
	for _, frag := range []string{
		// Per-datum noinline calls, out-of-line per-type routines.
		"rt.NPutU32BE(e,",
		"func xmNAcctPoint(e *rt.Encoder, v *AcctPoint)",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("rpcgen/xdr output missing %q", frag)
		}
	}
	if strings.Contains(got, "e.Grow(") {
		t.Error("rpcgen style must not group buffer checks")
	}
	if strings.Contains(got, "e.Next(") {
		t.Error("rpcgen style must not chunk")
	}
}

func TestGoldenFlickGIOP(t *testing.T) {
	got := compile(t, flick.Options{Format: "cdr-le", Style: "flick", EmitRPC: true, FuncSuffix: "C"})
	golden(t, "acct_flick_cdrle.go.golden", got)
	for _, frag := range []string{
		// GIOP servers demultiplex the operation name word by word.
		"switch len(op) {",
		"switch rt.Word4(op, 0) {",
		"case 0x6d6f7665: // \"move\"",
		"binary.LittleEndian",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("flick/cdr-le output missing %q", frag)
		}
	}
}

func TestStylesShareDeclarations(t *testing.T) {
	withDecls := compile(t, flick.Options{Format: "xdr"})
	skipped := compile(t, flick.Options{Format: "xdr", SkipDecls: true, FuncSuffix: "S"})
	if !strings.Contains(withDecls, "type AcctPoint struct") {
		t.Error("declarations missing")
	}
	if strings.Contains(skipped, "type AcctPoint struct") {
		t.Error("SkipDecls ignored")
	}
}

// TestGenerateRejectsInvalidGo pins the emitter's parse check: invalid
// Go in the output is an error, not a file, and the raw text comes back
// for diagnosis.
func TestGenerateRejectsInvalidGo(t *testing.T) {
	const bad = "type Broken struct {\n"
	f := &presc.File{Name: "bad", Lang: "go", Presentation: "go", Decls: bad}
	out, err := gostub.Generate(f, gostub.Config{Package: "p", Format: wire.XDR{}})
	if err == nil || !strings.Contains(err.Error(), "generated code does not parse") {
		t.Fatalf("err = %v, want a parse error", err)
	}
	if !strings.Contains(out, bad) {
		t.Errorf("raw output not returned for diagnosis:\n%s", out)
	}
}
