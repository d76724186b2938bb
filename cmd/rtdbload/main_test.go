package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"rtc/internal/rtdb"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
)

// startDemo serves an in-process shard set with the object and query
// names the mixed load drives (the rtdbd demo keyspace) and returns the
// per-shard listener addresses, shard 0 first.
func startDemo(t *testing.T, shards int) []string {
	t.Helper()
	latest := func(name string) func(*rtdb.View) []rtdb.Value {
		return func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.Latest(name); ok {
				return []rtdb.Value{s.Value}
			}
			return nil
		}
	}
	sp := rtdb.Spec{Images: []*rtdb.ImageObject{{Name: "temp", Period: 5}, {Name: "pressure", Period: 7}}}
	for i := 0; i < 16; i++ {
		sp.Images = append(sp.Images, &rtdb.ImageObject{Name: sensorName(i), Period: 5})
	}
	ss, err := server.NewSharded(server.ShardedConfig{
		Base: server.Config{
			Spec:     sp,
			Catalog:  rtdb.Catalog{"status_q": latest("temp"), "temp_q": latest("temp")},
			Sessions: 8,
		},
		Shards:    shards,
		QueryHome: map[string]string{"status_q": "temp", "temp_q": "temp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()
	set := netserve.NewShardSet(ss, netserve.Options{})
	addrs := make([]string, shards)
	for i, ns := range set {
		a, err := ns.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a.String()
	}
	t.Cleanup(func() {
		for _, ns := range set {
			_ = ns.Close()
		}
		ss.Stop()
	})
	return addrs
}

// TestRunMixedLoad drives the one mixed-load path against one shard and
// against three: every listener must announce its placement and label its
// metrics table accordingly, and the summed books must conserve queries
// (run fails otherwise).
func TestRunMixedLoad(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			addrs := startDemo(t, shards)
			var out bytes.Buffer
			if err := run(addrs, 4, 50, 40, time.Millisecond, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			got := out.String()
			for i := 0; i < shards; i++ {
				if !strings.Contains(got, fmt.Sprintf("shard %d: ", i)) {
					t.Errorf("no line for shard %d:\n%s", i, got)
				}
			}
			if !strings.Contains(got, "conservation (server books): 80 queries in") {
				t.Errorf("conservation line missing or miscounted:\n%s", got)
			}
		})
	}
}

// TestShardLabelChecks: a target whose listener is another shard, or
// whose deployment width differs from the target list, is refused — by the
// Welcome check when dialling and by the metrics label check.
func TestShardLabelChecks(t *testing.T) {
	addrs := startDemo(t, 3)
	misordered := []string{addrs[1], addrs[0], addrs[2]}
	if err := run(misordered, 1, 5, 40, time.Millisecond, io.Discard); err == nil {
		t.Error("mixed load accepted a misordered shard list")
	}
	if err := run(addrs[:1], 1, 5, 40, time.Millisecond, io.Discard); err == nil {
		t.Error("mixed load accepted one target for a three-shard deployment")
	}
	if _, err := shardBooks(addrs[1], 0, 3, io.Discard); err == nil {
		t.Error("metrics label check accepted shard 1's table as shard 0's")
	}
	if _, err := shardBooks(addrs[0], 0, 1, io.Discard); err == nil {
		t.Error("metrics label check accepted a labelled table as a lone shard's")
	}
}
