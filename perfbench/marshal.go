package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"flick/internal/frontend/corbaidl"
	"flick/internal/interp"
	"flick/internal/pgen"
	"flick/internal/pres"
	"flick/internal/presc"
	ts "flick/internal/teststubs"
	"flick/internal/wire"
	"flick/rt"
)

// windowTarget is the time one measurement window aims to fill. Each
// cell is measured in many short windows spread over the whole run
// rather than in one block, so a burst of interference lands on every
// cell a little instead of on one cell a lot.
const windowTarget = 2 * time.Millisecond

// mcell is one cell of the Fig 3 grid: one direction of one stub at
// one message size.
type mcell struct {
	name  string // direction.format.type.size
	bytes int    // encoded message length
	// run performs k operations; check verifies the last one.
	run   func(k int)
	check func() bool
	iters int
	// wins[0] records untraced windows, wins[1] traced ones.
	wins [2][]win
}

// win is one measured window: its wall and CPU time per message in ns.
type win struct{ ns, cpuNs float64 }

// window times one window into wins[side] and checks its last output.
func (c *mcell) window(r *report, side int) {
	cpu0 := cpuNanos()
	t0 := time.Now()
	c.run(c.iters)
	dt := time.Since(t0)
	k := float64(c.iters)
	c.wins[side] = append(c.wins[side], win{float64(dt) / k, float64(cpuNanos()-cpu0) / k})
	r.check(c.check())
}

// calibrate sizes the cell's window to about windowTarget.
func (c *mcell) calibrate() {
	k := 1
	for {
		t0 := time.Now()
		c.run(k)
		if dt := time.Since(t0); dt >= windowTarget/4 || k >= 1<<20 {
			c.iters = max(1, int(float64(k)*float64(windowTarget)/float64(max(dt, 1))))
			return
		}
		k *= 4
	}
}

// stubSet is one format's generated request marshal code for the three
// Fig 3 types.
type stubSet struct {
	name   string
	format wire.Format
	mInts  func(*rt.Encoder, []int32)
	uInts  func(*rt.Decoder) ([]int32, error)
	mRects func(*rt.Encoder, []ts.BenchRect)
	uRects func(*rt.Decoder) ([]ts.BenchRect, error)
	mDirs  func(*rt.Encoder, []ts.BenchDirEntry)
	uDirs  func(*rt.Decoder) ([]ts.BenchDirEntry, error)
}

var flickStubs = []stubSet{
	{"xdr", wire.XDR{},
		ts.MarshalBenchSendIntsXDRRequest, ts.UnmarshalBenchSendIntsXDRRequest,
		ts.MarshalBenchSendRectsXDRRequest, ts.UnmarshalBenchSendRectsXDRRequest,
		ts.MarshalBenchSendDirsXDRRequest, ts.UnmarshalBenchSendDirsXDRRequest},
	{"cdr", wire.CDR{Little: true},
		ts.MarshalBenchSendIntsCDRRequest, ts.UnmarshalBenchSendIntsCDRRequest,
		ts.MarshalBenchSendRectsCDRRequest, ts.UnmarshalBenchSendRectsCDRRequest,
		ts.MarshalBenchSendDirsCDRRequest, ts.UnmarshalBenchSendDirsCDRRequest},
}

// Fig 3 sizes: the smallest, a cache-resident 64 KB, and the largest.
var (
	arraySizes = []int{64, 64 << 10, 4 << 20}
	dirSizes   = []int{256, 64 << 10, 512 << 10}
)

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// inputs are the seeded Fig 3 values, one per type and size.
type inputs struct {
	ints  map[int][]int32
	rects map[int][]ts.BenchRect
	dirs  map[int][]ts.BenchDirEntry
}

func genInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{map[int][]int32{}, map[int][]ts.BenchRect{}, map[int][]ts.BenchDirEntry{}}
	for _, n := range arraySizes {
		v := make([]int32, n/4)
		for i := range v {
			v[i] = int32(rng.Uint32())
		}
		in.ints[n] = v
		rv := make([]ts.BenchRect, n/16)
		for i := range rv {
			rv[i] = ts.BenchRect{
				Min: ts.BenchPoint{X: int32(rng.Uint32()), Y: int32(rng.Uint32())},
				Max: ts.BenchPoint{X: int32(rng.Uint32()), Y: int32(rng.Uint32())},
			}
		}
		in.rects[n] = rv
	}
	for _, n := range dirSizes {
		in.dirs[n] = genDirs(rng, n/256)
	}
	return in
}

// genDirs builds n directory entries of exactly 256 XDR bytes each, as
// in the paper: a 116-byte name plus the 136-byte stat structure.
func genDirs(rng *rand.Rand, n int) []ts.BenchDirEntry {
	v := make([]ts.BenchDirEntry, n)
	name := make([]byte, 116)
	for i := range v {
		for j := range name {
			name[j] = byte('a' + rng.Intn(26))
		}
		v[i].Name = string(name)
		for j := range v[i].Info.Fields {
			v[i].Info.Fields[j] = int32(rng.Uint32())
		}
		rng.Read(v[i].Info.Tag[:])
	}
	return v
}

// requestNodes returns the PRES trees of the Bench request messages,
// which drive the reference interpreter.
func requestNodes() (map[string]*pres.Node, error) {
	f, err := corbaidl.Parse("test.idl", ts.BenchIDL)
	if err != nil {
		return nil, err
	}
	pf, err := pgen.GenerateGo(f, presc.Client)
	if err != nil {
		return nil, err
	}
	nodes := map[string]*pres.Node{}
	for _, s := range pf.Stubs {
		if len(s.Params) > 0 && s.Params[0].Request != nil {
			nodes[s.Op] = s.Params[0].Request
		}
	}
	for _, op := range []string{"send_ints", "send_rects", "send_dirs"} {
		if nodes[op] == nil {
			return nil, fmt.Errorf("no request PRES for %s", op)
		}
	}
	return nodes, nil
}

// cellPair builds the marshal and unmarshal cells of one stub at one
// value. It checks, once, that the stub's bytes equal the reference
// interpreter's for the same value and format and that the stub's
// decode round-trips; each window then re-checks its last output
// against those bytes and that value.
func cellPair[T comparable](r *report, name string, v []T, ref *interp.Marshaler, node *pres.Node,
	m func(*rt.Encoder, []T), u func(*rt.Decoder) ([]T, error)) (*mcell, *mcell) {
	var want rt.Encoder
	m(&want, v)
	golden := want.Bytes()
	var refEnc rt.Encoder
	err := ref.Marshal(&refEnc, node, v)
	r.check(err == nil && bytes.Equal(golden, refEnc.Bytes()))
	back, err := u(rt.NewDecoder(golden))
	r.check(err == nil && slices.Equal(back, v))

	var e rt.Encoder
	mc := &mcell{name: "marshal." + name, bytes: len(golden),
		run: func(k int) {
			for i := 0; i < k; i++ {
				e.Reset()
				m(&e, v)
			}
		},
		check: func() bool { return bytes.Equal(e.Bytes(), golden) },
	}
	var d rt.Decoder
	var out []T
	var derr error
	uc := &mcell{name: "unmarshal." + name, bytes: len(golden),
		run: func(k int) {
			for i := 0; i < k; i++ {
				d.Reset(golden)
				out, derr = u(&d)
			}
		},
		check: func() bool { return derr == nil && slices.Equal(out, v) },
	}
	return mc, uc
}

type marshalState struct {
	cells []*mcell // the 36 Flick cells, marshal and unmarshal interleaved
	refs  []*mcell // 64 KB baseline cells (rpcgen-style stubs, ILU interpreter)
}

func buildMarshal(seed int64, r *report) (*marshalState, error) {
	in := genInputs(seed)
	nodes, err := requestNodes()
	if err != nil {
		return nil, err
	}
	st := &marshalState{}
	add := func(mc, uc *mcell) { st.cells = append(st.cells, mc, uc) }
	for _, s := range flickStubs {
		ref := interp.New(s.format, interp.ILU)
		for _, n := range arraySizes {
			add(cellPair(r, s.name+".int."+sizeLabel(n), in.ints[n], ref, nodes["send_ints"], s.mInts, s.uInts))
		}
		for _, n := range arraySizes {
			add(cellPair(r, s.name+".rect."+sizeLabel(n), in.rects[n], ref, nodes["send_rects"], s.mRects, s.uRects))
		}
		for _, n := range dirSizes {
			add(cellPair(r, s.name+".dir."+sizeLabel(n), in.dirs[n], ref, nodes["send_dirs"], s.mDirs, s.uDirs))
		}
	}

	// Baselines at 64 KB: rpcgen-style generated stubs (XDR) and the
	// ILU-style interpreter (CDR-LE), as in the paper's comparison.
	const n = 64 << 10
	xdrRef := interp.New(wire.XDR{}, interp.ILU)
	mc, _ := cellPair(r, "rpcgen.int", in.ints[n], xdrRef, nodes["send_ints"], ts.MarshalBenchSendIntsXDRNaiveRequest, ts.UnmarshalBenchSendIntsXDRNaiveRequest)
	st.refs = append(st.refs, mc)
	mc, _ = cellPair(r, "rpcgen.rect", in.rects[n], xdrRef, nodes["send_rects"], ts.MarshalBenchSendRectsXDRNaiveRequest, ts.UnmarshalBenchSendRectsXDRNaiveRequest)
	st.refs = append(st.refs, mc)
	mc, _ = cellPair(r, "rpcgen.dir", in.dirs[n], xdrRef, nodes["send_dirs"], ts.MarshalBenchSendDirsXDRNaiveRequest, ts.UnmarshalBenchSendDirsXDRNaiveRequest)
	st.refs = append(st.refs, mc)
	ilu := interp.New(wire.CDR{Little: true}, interp.ILU)
	st.refs = append(st.refs,
		interpCell(r, "ilu.int", in.ints[n], ilu, nodes["send_ints"], ts.MarshalBenchSendIntsCDRRequest),
		interpCell(r, "ilu.rect", in.rects[n], ilu, nodes["send_rects"], ts.MarshalBenchSendRectsCDRRequest),
		interpCell(r, "ilu.dir", in.dirs[n], ilu, nodes["send_dirs"], ts.MarshalBenchSendDirsCDRRequest))

	for _, c := range append(st.cells, st.refs...) {
		c.calibrate()
	}
	return st, nil
}

// interpCell measures the reference interpreter's marshal of v, checked
// against the Flick stub's bytes.
func interpCell[T any](r *report, name string, v []T, m *interp.Marshaler, node *pres.Node, stub func(*rt.Encoder, []T)) *mcell {
	var want rt.Encoder
	stub(&want, v)
	golden := want.Bytes()
	var e rt.Encoder
	var err error
	return &mcell{name: "marshal." + name, bytes: len(golden),
		run: func(k int) {
			for i := 0; i < k; i++ {
				e.Reset()
				err = m.Marshal(&e, node, v)
			}
		},
		check: func() bool { return err == nil && bytes.Equal(e.Bytes(), golden) },
	}
}

// measure visits the cells round-robin, one window each, until the
// deadline, and runs the host reference after every round; it returns
// the reference times of each side's rounds. With a tracer, untraced
// and traced rounds alternate, so drift during the run lands on both
// sides of the overhead; traced windows are recorded as spans.
func measure(cells []*mcell, seconds float64, r *report, tr *tracer) (refs [2][]refTime) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ref := newHostRef()
	var id uint32
	var sWindow uint8
	if tr != nil {
		sWindow = tr.name("window")
	}
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		side := 0
		if tr != nil && !tr.full() {
			side = round % 2
		}
		for i, c := range cells {
			if side == 0 {
				c.window(r, 0)
				continue
			}
			t0 := tr.now()
			c.window(r, 1)
			tr.add(span{name: sWindow, id: id, aux: uint32(i), start: t0, end: tr.now()})
			id++
		}
		refs[side] = append(refs[side], ref.run())
	}
	return refs
}

// marshalE2E fills the end-to-end metrics from one side's windows and
// reference times: one operation is one message of one cell. Each
// cell's median window time per message and CPU per message, relative
// to the host reference run after the window's round (see atRefSpeed),
// are combined over the cells as geometric means, so a 64 B cell weighs
// as much as a 4 MB one. It returns the geometric mean of the cells'
// median time per message as measured, in µs.
func marshalE2E(into map[string]metric, cells []*mcell, side int, refs []refTime) float64 {
	refWall := make([]float64, len(refs))
	refCPU := make([]float64, len(refs))
	for i, t := range refs {
		refWall[i], refCPU[i] = t.us, t.cpuUs
	}
	var p50, cpu, raw []float64
	for _, c := range cells {
		ns := make([]float64, len(c.wins[side]))
		cpuNs := make([]float64, len(c.wins[side]))
		for i, w := range c.wins[side] {
			ns[i], cpuNs[i] = w.ns/1e3, w.cpuNs/1e3
		}
		p50 = append(p50, atRefSpeed(ns, refWall))
		cpu = append(cpu, atRefSpeed(cpuNs, refCPU))
		raw = append(raw, median(ns))
	}
	into["p50_us"] = metric{geomean(p50), "us"}
	into["cpu_us_per_op"] = metric{geomean(cpu), "us"}
	return geomean(raw)
}

// mbps is a cell's untraced median throughput.
func (c *mcell) mbps() float64 {
	ns := make([]float64, len(c.wins[0]))
	for i, w := range c.wins[0] {
		ns[i] = w.ns
	}
	return float64(c.bytes) / median(ns) * 1e3
}

func directionMBps(cells []*mcell, dir string) float64 {
	var v []float64
	for _, c := range cells {
		if strings.HasPrefix(c.name, dir+".") {
			v = append(v, c.mbps())
		}
	}
	return geomean(v)
}

func runMarshal(o options, r *report) error {
	defer singleP()()
	var setupChecks report
	// The set-up is timed as measured: it mostly allocates and fills
	// fresh memory, which the host reference does not track (in eight
	// runs, the two fastest set-ups as measured were the two slowest
	// relative to it).
	st, err := timeSetup(r, nil, func() (*marshalState, error) {
		setupChecks = report{}
		return buildMarshal(o.seed, &setupChecks)
	}, func(*marshalState) {})
	if err != nil {
		return err
	}
	r.attempted += setupChecks.attempted
	r.failed += setupChecks.failed
	r.infof("marshal grid: %d cells (Flick/ONC XDR and Flick/CORBA CDR-LE stubs; int, rect, dir; smallest, 64 KB, largest Fig 3 size); no transport", len(st.cells))

	var tr *tracer
	cells := st.cells
	if o.trace {
		tr = newTracer(1<<21, "window")
		cells = append(append([]*mcell(nil), st.cells...), st.refs...)
	}
	refs := measure(cells, o.seconds, r, tr)
	raw := marshalE2E(r.e2e, st.cells, 0, refs[0])
	r.infof("per-message time as measured %.4f us (geometric mean of the cells' medians; host reference %.0f us)", raw, medianRef(refs[0]))
	r.infof("marshal_MBps %.2f MB/s (geometric mean of %d cells)", directionMBps(st.cells, "marshal"), len(st.cells)/2)
	r.infof("unmarshal_MBps %.2f MB/s (geometric mean of %d cells)", directionMBps(st.cells, "unmarshal"), len(st.cells)/2)
	for _, c := range st.cells {
		r.infof("cell %-26s %9.2f MB/s  (%d B, %d windows of %d)", c.name, c.mbps(), c.bytes, len(c.wins[0]), c.iters)
	}
	if !o.trace {
		return nil
	}

	// Counters, untraced: space checks and allocations per 64 KB
	// message, averaged over the six 64 KB cells (per-element checks
	// would let the 4 MB cells swamp a mean over every size).
	const n = 64 << 10
	in := genInputs(o.seed)
	var grows, ensures, allocs []float64
	for _, s := range flickStubs {
		var e rt.Encoder
		e.EnableStats(true)
		counts := func(mf func(), uf func(d *rt.Decoder)) {
			e.Reset()
			mf()
			grows = append(grows, float64(e.TakeStats().GrowChecks))
			payload := append([]byte(nil), e.Bytes()...)
			var d rt.Decoder
			d.EnableStats(true)
			d.Reset(payload)
			uf(&d)
			ensures = append(ensures, float64(d.TakeStats().EnsureChecks))
			const reps = 4
			m0 := readMem()
			for i := 0; i < reps; i++ {
				d.Reset(payload)
				uf(&d)
			}
			allocs = append(allocs, float64(readMem().mallocs-m0.mallocs)/reps)
		}
		counts(func() { s.mInts(&e, in.ints[n]) }, func(d *rt.Decoder) { _, _ = s.uInts(d) })
		counts(func() { s.mRects(&e, in.rects[n]) }, func(d *rt.Decoder) { _, _ = s.uRects(d) })
		counts(func() { s.mDirs(&e, in.dirs[n]) }, func(d *rt.Decoder) { _, _ = s.uDirs(d) })
	}
	r.layer["enc.grow_checks_per_msg"] = metric{mean(grows), "count"}
	r.layer["dec.ensure_checks_per_msg"] = metric{mean(ensures), "count"}
	r.layer["unmarshal.allocs_per_msg"] = metric{mean(allocs), "count"}

	// Per-cell throughput from the traced windows' spans.
	tracedE2E := map[string]metric{}
	marshalE2E(tracedE2E, st.cells, 1, refs[1])
	overhead(r, tracedE2E)
	spanNs := make([][]float64, len(cells))
	for _, s := range tr.recorded() {
		c := cells[s.aux]
		spanNs[s.aux] = append(spanNs[s.aux], float64(s.end-s.start)/float64(c.iters))
	}
	for i, c := range st.cells {
		r.layer[c.name+".MBps"] = metric{float64(c.bytes) / median(spanNs[i]) * 1e3, "MB/s"}
	}
	for _, ref := range []string{"rpcgen", "ilu"} {
		var v []float64
		for i, c := range st.refs {
			if strings.HasPrefix(c.name, "marshal."+ref+".") {
				v = append(v, float64(c.bytes)/median(spanNs[len(st.cells)+i])*1e3)
			}
		}
		r.layer["ref."+ref+".marshal_MBps"] = metric{geomean(v), "MB/s"}
	}
	return tr.dump(r, spanFile(o, "marshal"))
}
