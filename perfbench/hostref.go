package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"runtime/debug"
	"strings"
	"time"
)

// The host reference is a fixed piece of compiler-like work that shares
// no code with the repository: the standard library's go/parser,
// go/types and go/printer on a fixed generated Go file. The compile and
// marshal workloads run it after every pass or round (compile after
// every set-up too) and report their figures relative to it, because
// single-threaded work on the shared host speeds up and slows down with
// its neighbours: in ten runs of the same code over five minutes the
// median compile pass ranged from 40 to 71 ms, its CPU time with it,
// and two runs whose medians were 65 and 53 ms had ratios to the
// reference within 0.1% of each other. With a cache- and memory-bound
// process added beside it, the marshal grid's per-message time ranged
// over 20% in six runs and its ratio over 4%. The RPC workloads are
// reported as measured: their calls wait on wake-ups and the loopback
// more than they compute (in a slow spell their median call moved 6%
// while their CPU per call moved 15%).
type hostRef struct {
	src []byte
	out bytes.Buffer
}

func newHostRef() *hostRef {
	var b strings.Builder
	b.WriteString("package ref\n\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "type T%d struct {\n\tA, B int32\n\tName string\n\tNext *T%d\n\tTags map[string][]byte\n}\n\n", i, i)
		fmt.Fprintf(&b, "func (t *T%d) Walk(n int, f func(string) bool) (sum int64, err error) {\n", i)
		b.WriteString("\tfor i := 0; i < n && t != nil; i++ {\n")
		b.WriteString("\t\tswitch {\n\t\tcase t.A > t.B:\n\t\t\tsum += int64(t.A-t.B) * 3\n")
		b.WriteString("\t\tcase len(t.Tags[t.Name]) == 0:\n\t\t\tif !f(t.Name + \"/\" + string(rune('a'+i%26))) {\n\t\t\t\treturn sum, nil\n\t\t\t}\n")
		b.WriteString("\t\tdefault:\n\t\t\tsum -= int64(len(t.Name)) << 2\n\t\t}\n\t\tt = t.Next\n\t}\n\treturn sum, err\n}\n\n")
	}
	return &hostRef{src: []byte(b.String())}
}

// refNominalUs is a typical time of the reference on the machine the
// benchmark was defined on (a 2-vCPU Xeon VM, where it took 4.4 to
// 7.7 ms). Figures taken relative to the reference are multiplied by it
// so that they read as µs at that speed; only their ratios between two
// commits matter.
const refNominalUs = 5000

// refTime is one run of the reference: wall and process CPU time, µs.
type refTime struct{ us, cpuUs float64 }

// run parses, type-checks and prints the reference file once. The
// collector is off while it runs (turning it off first waits for a
// cycle in progress to end), so the reference's time does not depend on
// the heap the workload left behind; its garbage is collected with the
// workload's in the next cycle.
func (h *hostRef) run() refTime {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0 := cpuNanos()
	t0 := time.Now()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ref.go", h.src, parser.ParseComments)
	if err != nil {
		panic(fmt.Sprintf("host reference: %v", err)) // the source is fixed and valid
	}
	var conf types.Config
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := conf.Check("ref", fset, []*ast.File{f}, info); err != nil {
		panic(fmt.Sprintf("host reference: %v", err))
	}
	h.out.Reset()
	if err := printer.Fprint(&h.out, fset, f); err != nil {
		panic(fmt.Sprintf("host reference: %v", err))
	}
	return refTime{float64(time.Since(t0)) / 1e3, float64(cpuNanos()-cpu0) / 1e3}
}

// atRefSpeed returns the median of x[i]/ref[i] scaled to refNominalUs:
// the typical x, in µs, as it reads when the host runs the reference at
// its nominal speed. Each x[i] is paired with the reference run next to
// it, so a slowdown that comes and goes within a run cancels too.
func atRefSpeed(x, ref []float64) float64 {
	r := make([]float64, len(x))
	for i := range x {
		r[i] = x[i] / ref[i]
	}
	return median(r) * refNominalUs
}

// medianRef is the median wall time of reference runs, µs.
func medianRef(refs []refTime) float64 {
	v := make([]float64, len(refs))
	for i, t := range refs {
		v[i] = t.us
	}
	return median(v)
}
