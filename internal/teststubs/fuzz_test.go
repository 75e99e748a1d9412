package teststubs

import (
	"math/rand"
	"testing"

	"flick/rt"
)

// TestRandomBytesNeverPanic feeds random garbage to every unmarshal
// entry point: decoders must return errors (or succeed on accidentally
// valid input), never panic or over-allocate.
func TestRandomBytesNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	decoders := []struct {
		name string
		f    func(*rt.Decoder) error
	}{
		{"ints", func(d *rt.Decoder) error { _, err := UnmarshalBenchSendIntsXDRRequest(d); return err }},
		{"rects", func(d *rt.Decoder) error { _, err := UnmarshalBenchSendRectsXDRRequest(d); return err }},
		{"dirs", func(d *rt.Decoder) error { _, err := UnmarshalBenchSendDirsXDRRequest(d); return err }},
		{"dirs-naive", func(d *rt.Decoder) error { _, err := UnmarshalBenchSendDirsXDRNaiveRequest(d); return err }},
		{"dirs-cdr", func(d *rt.Decoder) error { _, err := UnmarshalBenchSendDirsCDRRequest(d); return err }},
		{"reply", func(d *rt.Decoder) error { _, _, err := UnmarshalBenchListDirXDRReply(d); return err }},
		{"sum-reply", func(d *rt.Decoder) error { _, err := UnmarshalBenchSumXDRReply(d); return err }},
	}
	for iter := 0; iter < 3000; iter++ {
		n := r.Intn(64)
		buf := make([]byte, n)
		r.Read(buf)
		for _, dec := range decoders {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s panicked on %x: %v", dec.name, buf, p)
					}
				}()
				_ = dec.f(rt.NewDecoder(buf))
			}()
		}
	}
}

// TestMutatedValidMessagesNeverPanic flips bytes inside valid messages:
// decode must stay panic-free and reject structural damage.
func TestMutatedValidMessagesNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base := randDirs(r, 4)
	var e rt.Encoder
	MarshalBenchSendDirsXDRRequest(&e, base)
	valid := e.Bytes()
	for iter := 0; iter < 2000; iter++ {
		buf := append([]byte(nil), valid...)
		for k := 0; k < 1+r.Intn(4); k++ {
			buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked on mutation: %v", p)
				}
			}()
			_, _ = UnmarshalBenchSendDirsXDRRequest(rt.NewDecoder(buf))
		}()
	}
}

// TestServerSurvivesGarbageFrames drives raw garbage through a live
// server connection: the serve loop must keep answering well-formed
// requests afterwards.
func TestServerSurvivesGarbageFrames(t *testing.T) {
	impl := &benchImpl{}
	clientEnd, serverEnd := rt.Pipe()
	s := rt.NewServer(rt.ONC{})
	RegisterBenchXDR(s, impl)
	serve(t, s, serverEnd)
	defer clientEnd.Close()

	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		junk := make([]byte, r.Intn(100))
		r.Read(junk)
		if err := clientEnd.Send(junk); err != nil {
			t.Fatal(err)
		}
	}
	// The server drops undecodable headers without replying; a real
	// call still works on the same connection.
	c := NewBenchXDRClient(clientEnd)
	ret, err := c.Sum([]int32{1, 2, 3})
	if err != nil || ret != 6 {
		t.Fatalf("call after garbage: %d, %v", ret, err)
	}
}
