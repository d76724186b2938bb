package server

import (
	"fmt"
	"testing"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/sub"
)

func benchSpec() sub.Spec {
	return sub.Spec{
		Query: "status_q", Period: 1,
		Kind: deadline.Soft, Deadline: 1 << 40, MinUseful: 1,
	}
}

// BenchmarkSubTick is the end-to-end cost of one standing-query tick for a
// single subscriber: inject a sample (which advances the clock and makes the
// tick due), evaluate, queue, pop. The polled equivalent is BenchmarkQueryFirm
// plus an InjectSample — the delta is what the push machinery itself costs.
func BenchmarkSubTick(b *testing.B) {
	s := benchServer(b, 1, nil)
	c := s.Session(0)
	ss, err := s.Subscribe(benchSpec(), 0, 256, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c.InjectSample("temp", "21") == ErrBackpressure {
		}
		for {
			if _, _, ok := ss.Pop(); !ok {
				break
			}
		}
	}
	b.StopTimer()
	_ = c.Flush()
	if _, err := ss.Cancel(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSubscribeFanout measures the grouped fan-out: N subscribers share
// one (query, period) group, so each clock advance costs one catalog
// evaluation plus N scorings, queue puts, and pops. Scaling N shows the
// per-member increment riding on the shared evaluation.
func BenchmarkSubscribeFanout(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			s := benchServer(b, 1, nil)
			c := s.Session(0)
			subs := make([]*ServerSub, n)
			for i := range subs {
				ss, err := s.Subscribe(benchSpec(), 0, 256, nil)
				if err != nil {
					b.Fatal(err)
				}
				subs[i] = ss
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c.InjectSample("temp", "21") == ErrBackpressure {
				}
				for _, ss := range subs {
					for {
						if _, _, ok := ss.Pop(); !ok {
							break
						}
					}
				}
			}
			b.StopTimer()
			_ = c.Flush()
			for _, ss := range subs {
				if _, err := ss.Cancel(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
