package main

import "strings"

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric, in BENCHMARK.json's order.
var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	var out []layerMetric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit})
		}
	}
	// Tracing overhead: traced minus untraced, every workload.
	for _, m := range endToEnd[1:] {
		add(m.unit, "trace_overhead."+m.name)
	}
	// compile: the compiler's stages, its allocation, the optimizer.
	add("us", "frontend.us", "pgen.us", "verify.us", "backend.us")
	add("MB", "compile.alloc_MB")
	add("count", "opt.space_checks_after", "opt.chunks", "opt.bulk_arrays", "opt.inlined")
	// marshal: every Fig 3 cell, the runtime's space checks and
	// decode allocations, and the baselines.
	for _, dir := range []string{"marshal", "unmarshal"} {
		for _, f := range flickStubs {
			for _, t := range []struct {
				name  string
				sizes []int
			}{{"int", arraySizes}, {"rect", arraySizes}, {"dir", dirSizes}} {
				for _, n := range t.sizes {
					add("MB/s", strings.Join([]string{dir, f.name, t.name, sizeLabel(n), "MBps"}, "."))
				}
			}
		}
	}
	add("count", "enc.grow_checks_per_msg", "dec.ensure_checks_per_msg", "unmarshal.allocs_per_msg")
	add("MB/s", "ref.rpcgen.marshal_MBps", "ref.ilu.marshal_MBps")
	// rpc-*: the call chain, then the runtime's counters.
	add("us", chainLayers...)
	add("us", "unaccounted_us", "call_mean_us")
	add("count", "allocs_per_call")
	add("B", "alloc_B_per_call")
	add("count", "gc_cycles_per_kcall")
	add("ratio", "gc_cpu_frac")
	add("count", "frames_per_call")
	add("B", "wire_B_per_call")
	add("count", "arena.gets_per_call", "arena.puts_per_call", "arena.pinned_per_call")
	add("B", "copied_B_per_call")
	add("count", "flattened_sends_per_call")
	for _, op := range []int{opListDir, opSendDirs} {
		add("us", "p50_us."+opNames[op])
	}
	return out
}
