package wire

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

// spanFrame is sampleFrame plus a span block, exercising every encoder
// section.
func spanFrame() *Frame {
	f := sampleFrame()
	f.AddSpan(SpanRecord{Step: StepPrimary, Outcome: 0, Host: "E1",
		EnqueueMicros: 10, StartMicros: 20, EndMicros: 30})
	f.AddSpan(SpanRecord{Step: StepSIFT, Outcome: 3, Host: "E2",
		EnqueueMicros: 40, StartMicros: 50, EndMicros: 60})
	return f
}

func TestAppendBinaryMatchesMarshal(t *testing.T) {
	for name, f := range map[string]*Frame{
		"sample":  sampleFrame(),
		"spans":   spanFrame(),
		"empty":   {},
		"ipv6":    {ClientAddr: netip.MustParseAddrPort("[2001:db8::1]:8080"), Payload: []byte("x")},
		"noaddr":  {ClientID: 9, FrameNo: 2, Step: StepLSH, Payload: bytes.Repeat([]byte{7}, 300)},
		"nopay":   {ClientID: 1, ClientAddr: netip.MustParseAddrPort("10.0.0.7:9000")},
		"capture": {CaptureMicros: 1 << 50, Stateless: true},
	} {
		want, err := f.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Append onto a prefix: the encoding must land after it, intact.
		prefix := []byte("prefix")
		got, err := f.AppendBinary(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: AppendBinary diverged from MarshalBinary", name)
		}
		if size := f.EncodedSize(); size != len(want) {
			t.Errorf("%s: EncodedSize = %d, want %d", name, size, len(want))
		}
	}
}

func TestAppendBinaryErrorLeavesBufLength(t *testing.T) {
	f := sampleFrame()
	f.Payload = make([]byte, maxPayload+1)
	buf := []byte("keep")
	out, err := f.AppendBinary(buf)
	if err == nil {
		t.Fatal("oversized payload accepted")
	}
	if string(out) != "keep" {
		t.Errorf("buf mutated on error: %q", out)
	}
}

func TestUnmarshalNoCopyAliasesPayload(t *testing.T) {
	f := sampleFrame()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Frame
	if err := g.UnmarshalBinaryNoCopy(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("payload = %q", g.Payload)
	}
	// The payload must alias data, inside its bounds.
	if len(g.Payload) > 0 {
		p0 := &g.Payload[0]
		if p0 != &data[len(data)-len(g.Payload)] {
			t.Error("payload does not alias the tail of the receive buffer")
		}
	}
	// Mutating the source must show through the alias.
	data[len(data)-1] ^= 0xFF
	if g.Payload[len(g.Payload)-1] == f.Payload[len(f.Payload)-1] {
		t.Error("payload was copied, not aliased")
	}
}

func TestUnmarshalNoCopyMatchesCopying(t *testing.T) {
	for _, f := range []*Frame{sampleFrame(), spanFrame(), {}} {
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var a, b Frame
		if err := a.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if err := b.UnmarshalBinaryNoCopy(data); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("decoders diverged: %+v vs %+v", a, b)
		}
	}
}

func TestFramePoolRecycles(t *testing.T) {
	var pool FramePool
	f := pool.Get()
	data, err := spanFrame().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	payloadCap := cap(f.Payload)
	pool.Put(f)
	g := pool.Get()
	if g.ClientID != 0 || g.FrameNo != 0 || g.ClientAddr.IsValid() ||
		len(g.Payload) != 0 || len(g.Stages) != 0 || len(g.Spans) != 0 {
		t.Errorf("pooled frame not reset: %+v", g)
	}
	if g == f && cap(g.Payload) != payloadCap {
		t.Errorf("recycled frame lost payload capacity: %d vs %d", cap(g.Payload), payloadCap)
	}
	pool.Put(nil) // must not panic
}

func TestBufPool(t *testing.T) {
	var pool BufPool
	b := pool.Get(1024)
	if len(b) != 0 || cap(b) < 1024 {
		t.Fatalf("Get(1024): len %d cap %d", len(b), cap(b))
	}
	b = append(b, bytes.Repeat([]byte{1}, 512)...)
	pool.Put(b)
	c := pool.Get(256)
	if len(c) != 0 || cap(c) < 256 {
		t.Fatalf("Get(256) after Put: len %d cap %d", len(c), cap(c))
	}
	pool.Put(nil) // cap 0: dropped, must not panic
}

func TestCloneExactAndNilPreserving(t *testing.T) {
	f := spanFrame()
	c := f.Clone()
	if !reflect.DeepEqual(f, c) {
		t.Fatalf("clone diverged: %+v vs %+v", c, f)
	}
	if cap(c.Payload) != len(f.Payload) || cap(c.Stages) != len(f.Stages) || cap(c.Spans) != len(f.Spans) {
		t.Errorf("clone capacities not exact: payload %d/%d stages %d/%d spans %d/%d",
			cap(c.Payload), len(f.Payload), cap(c.Stages), len(f.Stages), cap(c.Spans), len(f.Spans))
	}
	c.Payload[0] ^= 1
	if f.Payload[0] == c.Payload[0] {
		t.Error("clone shares payload storage")
	}
	empty := &Frame{}
	e := empty.Clone()
	if e.Payload != nil || e.Stages != nil || e.Spans != nil {
		t.Errorf("clone of empty frame allocated slices: %+v", e)
	}
}

func BenchmarkMarshalPooled(b *testing.B) {
	f := sampleFrame()
	f.Payload = make([]byte, 180<<10)
	var pool BufPool
	b.SetBytes(int64(len(f.Payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := f.AppendBinary(pool.Get(f.EncodedSize()))
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(buf)
	}
}

func BenchmarkUnmarshalNoCopy(b *testing.B) {
	f := sampleFrame()
	f.Payload = make([]byte, 180<<10)
	data, err := f.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	var g Frame
	b.SetBytes(int64(len(f.Payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.UnmarshalBinaryNoCopy(data); err != nil {
			b.Fatal(err)
		}
	}
}

// Clone returns a deep copy of the frame, so a test can keep the
// original beside a copy it mutates. Slices are allocated at their exact
// lengths (nil stays nil).
func (f *Frame) Clone() *Frame {
	out := *f
	if f.Payload != nil {
		out.Payload = make([]byte, len(f.Payload))
		copy(out.Payload, f.Payload)
	}
	if f.Stages != nil {
		out.Stages = make([]StageRecord, len(f.Stages))
		copy(out.Stages, f.Stages)
	}
	if f.Spans != nil {
		out.Spans = make([]SpanRecord, len(f.Spans))
		copy(out.Spans, f.Spans)
	}
	return &out
}
