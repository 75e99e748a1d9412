// Command flick-stats demonstrates the runtime observability layer: it
// runs a loopback RPC workload (the Bench interface from the test IDL,
// served over an in-process pipe) with rt.Metrics attached to both the
// client and the server, then dumps the metric registries.
//
//	flick-stats                 # text exposition (flick_* lines)
//	flick-stats -json           # JSON snapshots
//	flick-stats -trace 0        # also print failure spans to stderr
//	flick-stats -trace 1        # ... every call's spans
//	flick-stats -trace 2        # ... plus hex dumps of the client's wire traffic
//	flick-stats -rounds 1000 -payload 65536
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	ts "flick/internal/teststubs"
	"flick/rt"
)

type impl struct{ dirs []ts.BenchDirEntry }

func (i *impl) SendInts(v []int32) error            { return nil }
func (i *impl) SendRects(v []ts.BenchRect) error    { return nil }
func (i *impl) SendDirs(v []ts.BenchDirEntry) error { i.dirs = v; return nil }
func (i *impl) Ping(nonce int32) error              { return nil }
func (i *impl) Sum(v []int32) (int32, error) {
	if len(v) == 0 {
		return 0, &ts.BenchBadSize{Wanted: 1}
	}
	var s int32
	for _, x := range v {
		s += x
	}
	return s, nil
}
func (i *impl) ListDir(path string) ([]ts.BenchDirEntry, int32, error) {
	return i.dirs, int32(len(i.dirs)), nil
}

func main() {
	rounds := flag.Int("rounds", 100, "workload rounds (each round is 5 calls)")
	payload := flag.Int("payload", 4096, "encoded payload bytes per array argument")
	asJSON := flag.Bool("json", false, "dump JSON snapshots instead of text exposition")
	traceLevel := flag.Int("trace", -1, "print recorded spans to stderr at this level (0=failures, 1=every call, 2=+wire dumps)")
	flag.Parse()

	clientMetrics, serverMetrics, err := run(*rounds, *payload, *traceLevel, os.Stderr)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		dumpJSON("client", clientMetrics)
		dumpJSON("server", serverMetrics)
		return
	}
	fmt.Println("# client")
	clientMetrics.Snapshot().WriteTo(os.Stdout)
	fmt.Println("# server")
	serverMetrics.Snapshot().WriteTo(os.Stdout)
}

// run drives the workload and returns the client and server metrics.
// A traceLevel of 0 or more attaches one Tracer to both ends — level 0
// records only failures, level 1 samples every call — and prints its
// spans to tw when the workload ends; level 2 also hex-dumps every
// message the client sends and receives as it happens.
func run(rounds, payload, traceLevel int, tw io.Writer) (client, server *rt.Metrics, err error) {
	server, client = rt.NewMetrics(), rt.NewMetrics()
	var tracer *rt.Tracer
	if traceLevel >= 0 {
		// Five calls a round, three spans each (call, attempt, dispatch).
		tracer = &rt.Tracer{RingSize: 15*rounds + 16}
		if traceLevel >= 1 {
			tracer.SampleRate = 1
		}
	}

	clientEnd, serverEnd := rt.Pipe()
	srv := rt.NewServer(rt.ONC{})
	srv.Metrics = server
	srv.Tracer = tracer
	ts.RegisterBenchXDR(srv, &impl{})
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeConn(serverEnd) }()

	var conn rt.Conn = clientEnd
	if traceLevel >= 2 {
		conn = &wireLog{Conn: clientEnd, w: tw}
	}
	c := ts.NewBenchXDRClient(conn)
	c.C.Metrics = client
	c.C.Tracer = tracer

	err = workload(c, rounds, payload)
	c.C.Close()
	<-done
	if tracer != nil {
		printSpans(tw, tracer)
	}
	return client, server, err
}

func workload(c *ts.BenchXDRClient, rounds, payload int) error {
	ints := make([]int32, payload/4)
	for i := range ints {
		ints[i] = int32(i)
	}
	dirs := makeDirs(payload)
	for i := 0; i < rounds; i++ {
		if err := c.SendInts(ints); err != nil {
			return err
		}
		if err := c.SendDirs(dirs); err != nil {
			return err
		}
		if _, err := c.Sum(ints); err != nil {
			return err
		}
		if _, _, err := c.ListDir("/tmp"); err != nil {
			return err
		}
		if err := c.Ping(int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// printSpans writes one line per recorded span, oldest first.
func printSpans(w io.Writer, tracer *rt.Tracer) {
	for _, sp := range tracer.Spans() {
		op := sp.Op
		if op == "" {
			op = "-"
		}
		fmt.Fprintf(w, "%s %s xid=%d dur=%s sess=%d", sp.Kind, op, sp.XID, sp.Dur.Round(time.Microsecond), sp.Sess)
		if sp.Err != "" {
			fmt.Fprintf(w, " err=%q", sp.Err)
		}
		fmt.Fprintln(w)
	}
	if n := tracer.Dropped(); n > 0 {
		fmt.Fprintf(w, "(%d older spans overwritten)\n", n)
	}
}

// maxWireDump bounds each hex dump so a megabyte payload cannot flood
// the log.
const maxWireDump = 256

// wireLog is an rt.Conn that hex-dumps every message sent and received
// through it (the -trace 2 wire dumps). Dumps are written before Send
// returns, so the caller's buffer is never retained.
type wireLog struct {
	rt.Conn
	mu sync.Mutex
	w  io.Writer
}

func (l *wireLog) Send(msg []byte) error {
	l.dump("send", msg)
	return l.Conn.Send(msg)
}

func (l *wireLog) Recv() ([]byte, error) {
	msg, err := l.Conn.Recv()
	if err == nil {
		l.dump("recv", msg)
	}
	return msg, err
}

func (l *wireLog) dump(dir string, msg []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "%s wire (%d bytes):\n", dir, len(msg))
	if len(msg) > maxWireDump {
		io.WriteString(l.w, hex.Dump(msg[:maxWireDump]))
		fmt.Fprintf(l.w, "  ... (%d bytes truncated)\n", len(msg)-maxWireDump)
		return
	}
	io.WriteString(l.w, hex.Dump(msg))
}

func makeDirs(bytes int) []ts.BenchDirEntry {
	const nameLen = 116 // one entry encodes to exactly 256 bytes
	v := make([]ts.BenchDirEntry, bytes/256)
	name := make([]byte, nameLen)
	for i := range v {
		for j := range name {
			name[j] = byte('a' + (i+j)%26)
		}
		v[i].Name = string(name)
	}
	return v
}

func dumpJSON(label string, m *rt.Metrics) {
	data, err := m.Snapshot().JSON()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("{\"side\":%q,\"metrics\":%s}\n", label, data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flick-stats:", err)
	os.Exit(1)
}
