package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark's own wrappers
// around a call into a layer. Spans of one operation share id (the XID
// on the RPC workloads); parent names the span that caused this one,
// which with id identifies it uniquely.
type span struct {
	name   uint8
	parent uint8
	id     uint32
	aux    uint32 // workload-defined second key (the request tag on RPC)
	start  int64  // ns since the tracer's base
	end    int64
}

// tracer keeps spans in a preallocated slice, so recording costs one
// atomic increment and no allocation; spans beyond capacity are counted
// and dropped.
type tracer struct {
	base    time.Time
	names   []string
	spans   []span
	n       atomic.Int64 // slots reserved
	written atomic.Int64 // reserved slots filled
	dropped atomic.Int64
}

func newTracer(capacity int, names ...string) *tracer {
	return &tracer{base: time.Now(), names: append([]string{"-"}, names...), spans: make([]span, capacity)}
}

// now is a timestamp on the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// name returns the index of a span name registered in newTracer.
func (t *tracer) name(s string) uint8 {
	for i, n := range t.names {
		if n == s {
			return uint8(i)
		}
	}
	panic("perfbench: unregistered span name " + s)
}

func (t *tracer) add(s span) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
	t.written.Add(1)
}

// full reports whether the next span would be dropped.
func (t *tracer) full() bool { return t.n.Load() >= int64(len(t.spans)) }

// recorded returns the spans kept so far, once every reserved slot has
// been filled: a server goroutine may still be recording the last
// reply's span when the run ends.
func (t *tracer) recorded() []span {
	for {
		// With no reservation between the two loads, every write counted
		// is to a slot below n.
		n := t.n.Load()
		w := t.written.Load()
		if t.n.Load() == n && w == min(n, int64(len(t.spans))) {
			return t.spans[:w]
		}
		runtime.Gosched()
	}
}

// write dumps the spans as tab-separated text: name, parent, id, aux,
// start_ns, end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tparent\tid\taux\tstart_ns\tend_ns")
	for _, s := range t.recorded() {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\n", t.names[s.name], t.names[s.parent], s.id, s.aux, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dump writes the spans and notes where they went.
func (t *tracer) dump(r *report, path string) error {
	if err := t.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.infof("spans %d recorded, %d dropped, written to %s", len(t.recorded()), t.dropped.Load(), path)
	return nil
}
