package netserve

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// benchNet stands up a loopback server with nConns pre-dialed clients, so
// the benchmark loop measures the serving path (frame codec, write queue,
// session, apply loop) and not dial/handshake cost.
func benchNet(b *testing.B, nConns int) []*client.Client {
	b.Helper()
	cfg := testConfig()
	cfg.Sessions = nConns
	cfg.QueueDepth = 256
	s, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	ns := New(s, Options{WriteQueue: 256, MaxInflight: 64})
	addr, err := ns.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = ns.Close()
		s.Stop()
	})
	conns := make([]*client.Client, nConns)
	for i := range conns {
		c, err := client.Dial(addr.String(), client.Options{Name: fmt.Sprintf("bench-%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	// Seed one sample so queries have data to answer from.
	if err := conns[0].InjectSample("temp", "21"); err != nil {
		b.Fatal(err)
	}
	if err := conns[0].Flush(); err != nil {
		b.Fatal(err)
	}
	return conns
}

// BenchmarkNetQuery measures firm-deadline query round trips over loopback
// TCP across 4 client connections (the acceptance-criteria shape).
func BenchmarkNetQuery(b *testing.B) {
	conns := benchNet(b, 4)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := conns[next.Add(1)%uint64(len(conns))]
		for pb.Next() {
			r, err := c.Query(client.Query{
				Query: "status_q", Candidate: "ok",
				Kind: deadline.Firm, Deadline: 1 << 30, MinUseful: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !r.Evaluated {
				b.Fatal("query not evaluated")
			}
		}
	})
}

// BenchmarkNetSample measures fire-and-forget sample injection over one
// connection, flushing at the end so every sample is applied.
func BenchmarkNetSample(b *testing.B) {
	conns := benchNet(b, 1)
	c := conns[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.InjectSample("temp", "21"); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// BenchmarkNetPushFanout measures standing-query fan-out over loopback TCP:
// subs subscriptions of one connection in one evaluation group, stepped by
// Server.Tick. One iteration is one group tick — one evaluation, subs Push
// frames on the wire, read back by a client that checks each frame's CRC
// and kind without decoding it. It reports ns/push and the server's socket
// writes per tick. Each iteration repeats the same work (no samples, so no
// history grows), so ns/op is flat in b.N.
func BenchmarkNetPushFanout(b *testing.B) {
	for _, subs := range []int{16, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			s, cl, addr := startCountingNet(b, Options{})
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatal(err)
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			var rbuf []byte
			expect := func(k rtwire.Kind) {
				f, err := rtwire.ReadFrameBuf(br, &rbuf)
				if err != nil {
					b.Fatal(err)
				}
				if f.Kind != k {
					b.Fatalf("read %v, want %v", f.Kind, k)
				}
			}
			out := rtwire.Hello{Client: "fanout"}.Encode()
			for id := 1; id <= subs; id++ {
				out = rtwire.SubOpen{
					ID: uint64(id), Query: "status_q", Period: fanoutPeriod,
					Kind: deadline.Soft, Deadline: 1 << 20, Depth: 16,
				}.AppendTo(out)
			}
			if _, err := nc.Write(out); err != nil {
				b.Fatal(err)
			}
			expect(rtwire.KindWelcome)
			for i := 0; i < subs; i++ {
				expect(rtwire.KindSubAck)
			}

			b.ReportAllocs()
			w0 := cl.writes.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Tick(fanoutPeriod); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < subs; j++ {
					expect(rtwire.KindPush)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*subs), "ns/push")
			b.ReportMetric(float64(cl.writes.Load()-w0)/float64(b.N), "writes/tick")
		})
	}
}
