package obs

import (
	"strconv"
	"testing"
	"time"
)

// FuzzTraceWire throws arbitrary wire at both trace headers. The
// TraceHeader parser never panics, and what it accepts — like what
// WireHeader emits for any trace identity — re-encodes to itself. Merging
// an arbitrary TraceSpansHeader never panics, never records past maxSpans,
// every remote span it keeps starts and lasts a non-negative time, and
// the waterfall draws the result.
func FuzzTraceWire(f *testing.F) {
	now := time.Now()
	f.Add("00000000000000ff-3-1", "shard.write,"+strconv.FormatInt(now.UnixNano(), 10)+",5000000,0", uint64(255), int32(3), true)
	f.Add("zz", "shard.stat,0,1000,1;garbage,entry", uint64(0), int32(0), false)
	f.Add("0123456789abcdef--1-0", "a,9223372036854775807,0,0;b,-9223372036854775808,0,1", uint64(1<<63), int32(-1), true)
	f.Add("", ";;;,,,;a,1,-1,0", ^uint64(0), int32(63), false)
	f.Fuzz(func(t *testing.T, header, spans string, id uint64, slot int32, sampled bool) {
		if info := ParseTraceHeader(header); info.Valid {
			bit := "0"
			if info.Sampled {
				bit = "1"
			}
			again := formatID(info.ID) + "-" + strconv.Itoa(info.Parent) + "-" + bit
			if ParseTraceHeader(again) != info {
				t.Fatalf("ParseTraceHeader(%q) = %+v, but its re-encoding %q parses to %+v", header, info, again, ParseTraceHeader(again))
			}
		}
		// A span handle only ever holds a slot of the trace's table.
		parent := int32(uint32(slot) % maxSpans)
		tr := &Trace{id: id, sampled: sampled}
		want := RemoteTraceInfo{ID: id, Parent: int(parent), Sampled: sampled, Valid: true}
		if got := ParseTraceHeader(tr.WireHeader(Span{t: tr, idx: parent})); got != want {
			t.Fatalf("WireHeader round trip: %+v, want %+v", got, want)
		}

		rec := NewRecorder(RecorderConfig{Capacity: 1, SampleEvery: 1})
		live := rec.Start("put", "fuzz")
		sp := live.StartSpan("peer.put")
		live.AddRemoteSpans(2, sp, spans)
		live.AddRemoteSpans(3, Span{}, spans)
		sp.End(nil)
		rec.Finish(live, 200)
		got := rec.Find("fuzz")
		if got == nil || len(got.Spans) > maxSpans {
			t.Fatalf("merged trace holds %v spans, cap %d", got, maxSpans)
		}
		for _, s := range got.Spans {
			if s.Remote && (s.StartMs < 0 || s.DurMs < 0) {
				t.Fatalf("remote span %+v from wire %q: negative start or duration", s, spans)
			}
		}
		Waterfall(got)
	})
}
