package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"flick"
	"flick/internal/aoi"
	"flick/internal/backend/cstub"
	"flick/internal/backend/gostub"
	"flick/internal/frontend/corbaidl"
	"flick/internal/frontend/mig"
	"flick/internal/frontend/oncrpc"
	"flick/internal/mir"
	"flick/internal/pgen"
	"flick/internal/presc"
	"flick/internal/verify"
	"flick/internal/wire"
)

// genJob is one compiler configuration of the corpus and the committed
// output it must reproduce.
type genJob struct {
	name   string // committed output, relative to the root
	file   string // source name as the compiler receives it
	src    string
	opt    flick.Options
	golden string
}

const generatePrefix = "go run flick/cmd/flick "

// loadCorpus collects every flick //go:generate directive committed
// under root, plus the two C back-end goldens of the cstub tests, with
// their sources and committed outputs.
func loadCorpus(root string) ([]genJob, error) {
	var jobs []genJob
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		found, err := directives(path)
		if err != nil {
			return err
		}
		for _, args := range found {
			j, err := directiveJob(root, filepath.Dir(path), args)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			jobs = append(jobs, j)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no flick //go:generate directives under %s", root)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].name < jobs[b].name })
	cjobs, err := cstubJobs(root)
	if err != nil {
		return nil, err
	}
	return append(jobs, cjobs...), nil
}

// directives returns the argument lists of a file's flick directives.
func directives(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "//go:generate "+generatePrefix); ok {
			out = append(out, strings.Fields(rest))
		}
	}
	return out, sc.Err()
}

// directiveJob maps cmd/flick's flags onto flick.Options, as the
// command does.
func directiveJob(root, dir string, args []string) (genJob, error) {
	fl := flag.NewFlagSet("flick", flag.ContinueOnError)
	idl := fl.String("idl", "auto", "")
	lang := fl.String("lang", "go", "")
	format := fl.String("format", "xdr", "")
	style := fl.String("style", "flick", "")
	pkg := fl.String("package", "stubs", "")
	suffix := fl.String("suffix", "", "")
	skipDecls := fl.Bool("skip-decls", false, "")
	rpc := fl.Bool("rpc", true, "")
	surfaces := fl.String("surfaces", "", "")
	surfacesOnly := fl.Bool("surfaces-only", false, "")
	side := fl.String("side", "client", "")
	out := fl.String("o", "", "")
	disable := fl.String("disable", "", "")
	zeroCopy := fl.Bool("zerocopy", false, "")
	verifyMode := fl.String("verify", "on", "")
	noVerify := fl.Bool("noverify", false, "")
	if err := fl.Parse(args); err != nil {
		return genJob{}, err
	}
	if fl.NArg() != 1 || *out == "" {
		return genJob{}, fmt.Errorf("directive %q needs -o and one source", strings.Join(args, " "))
	}
	opt := flick.Options{
		IDL: *idl, Lang: *lang, Format: *format, Style: *style, Package: *pkg,
		FuncSuffix: *suffix, SkipDecls: *skipDecls, EmitRPC: *rpc, Surfaces: *surfaces,
		SurfacesOnly: *surfacesOnly, Side: *side, ZeroCopy: *zeroCopy,
	}
	for _, d := range strings.Split(*disable, ",") {
		switch strings.TrimSpace(d) {
		case "":
		case "group":
			opt.DisableGroup = true
		case "chunk":
			opt.DisableChunk = true
		case "memcpy":
			opt.DisableMemcpy = true
		case "inline":
			opt.DisableInline = true
		default:
			return genJob{}, fmt.Errorf("unknown optimization %q", d)
		}
	}
	var err error
	if opt.Verify, err = verify.ParseMode(*verifyMode); err != nil {
		return genJob{}, err
	}
	if *noVerify {
		opt.Verify = verify.Off
	}
	src, err := os.ReadFile(filepath.Join(dir, fl.Arg(0)))
	if err != nil {
		return genJob{}, err
	}
	outPath := filepath.Join(dir, *out)
	golden, err := os.ReadFile(outPath)
	if err != nil {
		return genJob{}, err
	}
	name, err := filepath.Rel(root, outPath)
	if err != nil {
		return genJob{}, err
	}
	return genJob{name: name, file: fl.Arg(0), src: string(src), opt: opt, golden: string(golden)}, nil
}

// cstubJobs rebuilds the C back end's two golden configurations from
// the IDL constants of its tests (the goldens are not go:generate
// outputs; the tests regenerate them with -update).
func cstubJobs(root string) ([]genJob, error) {
	dir := filepath.Join(root, "internal", "backend", "cstub")
	consts, err := stringConsts(filepath.Join(dir, "cstub_test.go"))
	if err != nil {
		return nil, err
	}
	specs := []struct {
		file, constName, golden string
		opt                     flick.Options
	}{
		{"mail.idl", "mailIDL", "mail_corba_cdr.c", flick.Options{IDL: "corba", Lang: "c", Format: "cdr", Style: "flick"}},
		{"bench.x", "benchX", "bench_rpcgen_xdr.c", flick.Options{IDL: "oncrpc", Lang: "c", Format: "xdr", Style: "flick"}},
	}
	var jobs []genJob
	for _, s := range specs {
		src, ok := consts[s.constName]
		if !ok {
			return nil, fmt.Errorf("cstub_test.go: no constant %s", s.constName)
		}
		path := filepath.Join(dir, "testdata", s.golden)
		golden, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		name, _ := filepath.Rel(root, path)
		jobs = append(jobs, genJob{name: name, file: s.file, src: src, opt: s.opt, golden: string(golden)})
	}
	return jobs, nil
}

// stringConsts returns the package-level string constants of a Go file.
func stringConsts(path string) (map[string]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			for i, n := range vs.Names {
				if i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						out[n.Name] = v
					}
				}
			}
		}
	}
	return out, nil
}

// compileSpans are the span names of the traced compile pass.
var compileSpans = []string{"pass", "compile", "frontend", "pgen", "verify", "backend"}

// stageTimer records one pass's stage spans.
type stageTimer struct {
	tr                                      *tracer
	pass                                    uint32
	sCompile, sFront, sPgen, sVerify, sBack uint8
	sPass                                   uint8
}

func newStageTimer(tr *tracer) *stageTimer {
	return &stageTimer{tr: tr, sPass: tr.name("pass"), sCompile: tr.name("compile"),
		sFront: tr.name("frontend"), sPgen: tr.name("pgen"), sVerify: tr.name("verify"), sBack: tr.name("backend")}
}

// stage runs f as one span of the compile of job j.
func (st *stageTimer) stage(name uint8, j int, f func() error) error {
	t0 := st.tr.now()
	err := f()
	st.tr.add(span{name: name, parent: st.sCompile, id: st.pass, aux: uint32(j), start: t0, end: st.tr.now()})
	return err
}

// compileStaged runs flick.Compile's pipeline stage by stage through
// each layer's public entry point, in Compile's order, timing each
// stage. Its output must equal flick.Compile's byte for byte.
func compileStaged(job genJob, j int, st *stageTimer, stats *gostub.Stats) (string, error) {
	opt := job.opt
	if opt.Lang == "" {
		opt.Lang = "go"
	}
	if opt.Format == "" {
		opt.Format = "xdr"
	}
	if opt.Package == "" {
		opt.Package = "stubs"
	}
	format, ok := wire.ByName(opt.Format)
	if !ok {
		return "", fmt.Errorf("unknown wire format %q", opt.Format)
	}
	idl := resolveIDL(job.file, opt.IDL)
	side := presc.Client
	if opt.Side == "server" {
		side = presc.Server
	}

	var pf *presc.File
	if idl == "mig" {
		// MIG's front end builds the presentation itself.
		err := st.stage(st.sFront, j, func() (err error) {
			pf, err = mig.Parse(job.file, job.src, side)
			return err
		})
		if err != nil {
			return "", err
		}
	} else {
		var af *aoi.File
		err := st.stage(st.sFront, j, func() (err error) {
			if idl == "oncrpc" {
				af, err = oncrpc.Parse(job.file, job.src)
			} else {
				af, err = corbaidl.Parse(job.file, job.src)
			}
			return err
		})
		if err != nil {
			return "", err
		}
		err = st.stage(st.sPgen, j, func() (err error) {
			if opt.Lang == "c" {
				pf, err = pgen.GenerateC(af, side, cPresentation(idl, opt))
			} else {
				pf, err = pgen.GenerateGo(af, side)
			}
			return err
		})
		if err != nil {
			return "", err
		}
	}
	if opt.Verify != verify.Off {
		err := st.stage(st.sVerify, j, func() error {
			var vc *verify.Counters
			if stats != nil {
				vc = &stats.Verify
			}
			if fs := verify.PRESC(pf, vc); len(fs) > 0 {
				return fs.AsError()
			}
			return nil
		})
		if err != nil {
			return "", err
		}
	}

	mopt := mir.AllOptimizations()
	if opt.Style != "" && opt.Style != "flick" {
		mopt = mir.NoOptimizations()
	}
	mopt.GroupEnsures = mopt.GroupEnsures && !opt.DisableGroup
	mopt.Chunk = mopt.Chunk && !opt.DisableChunk
	mopt.Memcpy = mopt.Memcpy && !opt.DisableMemcpy
	mopt.Inline = mopt.Inline && !opt.DisableInline

	var out string
	err := st.stage(st.sBack, j, func() (err error) {
		if opt.Lang == "c" {
			cfg := cstub.Config{Format: format, Opts: mopt, Verify: opt.Verify}
			if stats != nil {
				cfg.Opts.Stats = &stats.Total
				cfg.VerifyCounters = &stats.Verify
			}
			out, err = cstub.Generate(pf, cfg)
			return err
		}
		var surfaces []gostub.Surface
		if opt.Surfaces != "" {
			if surfaces, err = gostub.ParseSurfaces(opt.Surfaces); err != nil {
				return err
			}
		}
		out, err = gostub.Generate(pf, gostub.Config{
			Package: opt.Package, Format: format, Style: goStyle(opt.Style), Opts: &mopt,
			FuncSuffix: opt.FuncSuffix, SkipDecls: opt.SkipDecls, EmitRPC: opt.EmitRPC,
			Surfaces: surfaces, SurfacesOnly: opt.SurfacesOnly, Stats: stats,
			Verify: opt.Verify, ZeroCopy: opt.ZeroCopy,
		})
		return err
	})
	return out, err
}

func resolveIDL(file, idl string) string {
	if idl != "" && idl != "auto" {
		return idl
	}
	switch {
	case strings.HasSuffix(file, ".x"):
		return "oncrpc"
	case strings.HasSuffix(file, ".defs"):
		return "mig"
	}
	return "corba"
}

func cPresentation(idl string, opt flick.Options) string {
	switch {
	case opt.Presentation != "":
		return opt.Presentation
	case idl == "oncrpc":
		return "rpcgen"
	case opt.Format == "fluke":
		return "fluke"
	}
	return "corba"
}

func goStyle(s string) gostub.Style {
	switch s {
	case "rpcgen":
		return gostub.StyleRpcgen
	case "powerrpc":
		return gostub.StylePowerRPC
	}
	return gostub.StyleFlick
}

// compilePass compiles the whole corpus through flick.Compile, checking
// every output against its committed file, and returns the bytes
// generated.
func compilePass(jobs []genJob, r *report) int {
	total := 0
	for _, j := range jobs {
		out, err := flick.Compile(j.file, j.src, j.opt)
		r.check(err == nil && out == j.golden)
		total += len(out)
	}
	return total
}

type compileState struct {
	jobs   []genJob
	genLen int
}

func runCompile(o options, r *report) error {
	defer singleP()()
	var setupChecks report
	st, err := timeSetup(r, newHostRef(), func() (*compileState, error) {
		jobs, err := loadCorpus(o.root)
		if err != nil {
			return nil, err
		}
		// Warm-up pass, which also proves two compiles of one
		// configuration agree: every pass must equal the committed file.
		setupChecks = report{}
		n := compilePass(jobs, &setupChecks)
		return &compileState{jobs: jobs, genLen: n}, nil
	}, func(*compileState) {})
	if err != nil {
		return err
	}
	r.attempted += setupChecks.attempted
	r.failed += setupChecks.failed
	goCount := 0
	for _, j := range st.jobs {
		if j.opt.Lang != "c" {
			goCount++
		}
	}
	r.infof("corpus %d configurations (%d go:generate directives, %d C goldens), %d generated bytes",
		len(st.jobs), goCount, len(st.jobs)-goCount, st.genLen)
	r.infof("gen_kB %.3f kB", float64(st.genLen)/1000)

	if !o.trace {
		passes, _ := compileLoop(st.jobs, o.seconds, r, nil)
		r.infof("%s", compileE2E(r.e2e, passes.passes))
		return nil
	}

	// Optimizer counters from one staged pass.
	stats := &gostub.Stats{}
	tr := newTracer(1<<20, compileSpans...)
	stt := newStageTimer(tr)
	for i, j := range st.jobs {
		out, err := compileStaged(j, i, stt, stats)
		r.check(err == nil && out == j.golden)
	}
	r.layer["opt.space_checks_after"] = metric{float64(stats.Total.SpaceChecksAfter), "count"}
	r.layer["opt.chunks"] = metric{float64(stats.Total.Chunks), "count"}
	r.layer["opt.bulk_arrays"] = metric{float64(stats.Total.BulkArrays), "count"}
	r.layer["opt.inlined"] = metric{float64(stats.Total.InlinedAggregates), "count"}

	// Untraced flick.Compile passes alternate with traced staged passes,
	// so drift during the run lands on both sides of the overhead.
	tr = newTracer(1<<20, compileSpans...)
	stt = newStageTimer(tr)
	plain, traced := compileLoop(st.jobs, o.seconds, r, stt)
	r.infof("untraced: %s", compileE2E(r.e2e, plain.passes))
	r.layer["compile.alloc_MB"] = metric{float64(plain.allocB) / float64(len(plain.passes)) / 1e6, "MB"}
	tracedE2E := map[string]metric{}
	compileE2E(tracedE2E, traced.passes)
	overhead(r, tracedE2E)

	// Per-stage time per pass, summed from the stage spans.
	sum := map[uint8]float64{}
	for _, s := range tr.recorded() {
		sum[s.name] += float64(s.end - s.start)
	}
	n := float64(len(traced.passes)) * 1e3
	for _, stage := range []string{"frontend", "pgen", "verify", "backend"} {
		r.layer[stage+".us"] = metric{sum[tr.name(stage)] / n, "us"}
	}
	r.infof("traced compile: pass %.1f us = frontend %.1f + pgen %.1f + verify %.1f + backend %.1f + unaccounted %.1f",
		sum[stt.sPass]/n, sum[stt.sFront]/n, sum[stt.sPgen]/n, sum[stt.sVerify]/n, sum[stt.sBack]/n,
		(sum[stt.sPass]-sum[stt.sFront]-sum[stt.sPgen]-sum[stt.sVerify]-sum[stt.sBack])/n)
	return tr.dump(r, spanFile(o, "compile"))
}

// pass is one full corpus pass: its wall time and the process CPU it
// took, in µs, and the host reference run right after it.
type pass struct {
	us, cpuUs float64
	ref       refTime
}

// passSet is the record of a series of corpus passes.
type passSet struct {
	passes []pass
	allocB uint64 // bytes allocated (traced runs only)
}

// compileLoop runs full corpus passes through flick.Compile until the
// deadline, each followed by a run of the host reference. With a stage
// timer, each is followed by a traced pass of the staged pipeline too,
// and the passes' allocation is counted.
func compileLoop(jobs []genJob, seconds float64, r *report, stt *stageTimer) (plain, traced passSet) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ref := newHostRef()
	timed := func(set *passSet, f func()) {
		var m0 memSnap
		if stt != nil {
			m0 = readMem()
		}
		cpu0 := cpuNanos()
		t0 := time.Now()
		f()
		p := pass{us: float64(time.Since(t0)) / 1e3, cpuUs: float64(cpuNanos()-cpu0) / 1e3}
		if stt != nil {
			set.allocB += readMem().bytes - m0.bytes
		}
		p.ref = ref.run()
		set.passes = append(set.passes, p)
	}
	for len(plain.passes) == 0 || time.Now().Before(deadline) {
		timed(&plain, func() { compilePass(jobs, r) })
		if stt != nil && !stt.tr.full() {
			timed(&traced, func() { stagedPass(jobs, r, stt) })
		}
	}
	return plain, traced
}

// stagedPass compiles the corpus stage by stage under spans.
func stagedPass(jobs []genJob, r *report, stt *stageTimer) {
	tr := stt.tr
	t0 := tr.now()
	for i, j := range jobs {
		t1 := tr.now()
		out, err := compileStaged(j, i, stt, nil)
		tr.add(span{name: stt.sCompile, parent: stt.sPass, id: stt.pass, aux: uint32(i), start: t1, end: tr.now()})
		r.check(err == nil && out == j.golden)
	}
	tr.add(span{name: stt.sPass, id: stt.pass, start: t0, end: tr.now()})
	stt.pass++
}

// compileE2E fills the end-to-end metrics: one operation is one full
// corpus pass; the median pass time and CPU time, each relative to the
// host reference run after the pass (see atRefSpeed). It returns the
// figures as measured, which are printed, not gated.
func compileE2E(into map[string]metric, passes []pass) string {
	var wall, cpu, refWall, refCPU []float64
	for _, p := range passes {
		wall = append(wall, p.us)
		cpu = append(cpu, p.cpuUs)
		refWall = append(refWall, p.ref.us)
		refCPU = append(refCPU, p.ref.cpuUs)
	}
	into["p50_us"] = metric{atRefSpeed(wall, refWall), "us"}
	into["cpu_us_per_op"] = metric{atRefSpeed(cpu, refCPU), "us"}
	sort.Float64s(wall)
	return fmt.Sprintf("compile_ms %.3f ms as measured (median of %d passes; p90 %.3f ms; CPU %.3f ms/pass; host reference %.0f us)",
		quantile(wall, 0.5)/1e3, len(wall), quantile(wall, 0.9)/1e3, mean(cpu)/1e3, median(refWall))
}

// overhead reports traced minus untraced for every end-to-end metric
// the traced phase re-measured.
func overhead(r *report, traced map[string]metric) {
	for _, m := range endToEnd {
		t, ok := traced[m.name]
		if !ok {
			continue
		}
		d := t.Value - r.e2e[m.name].Value
		r.layer["trace_overhead."+m.name] = metric{d, m.unit}
		r.infof("trace overhead %s: traced %.4g - untraced %.4g = %+.4g %s", m.name, t.Value, r.e2e[m.name].Value, d, m.unit)
	}
}
