package netserve

import (
	"fmt"
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
)

// fetchMetricRows dials addr and returns the metrics table by name.
func fetchMetricRows(t *testing.T, addr string) map[string]uint64 {
	t.Helper()
	c, err := client.Dial(addr, client.Options{Name: "rows-probe"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return m.Map()
}

// TestMetricsDurabilityRows: the wire metrics of a WAL-backed primary must
// carry the durability coordinates failover tooling reads — wal_seq (the
// durable tail a promoted node is checked against), epoch (the fencing
// coordinate), and repl_durable (the follower-acked watermark). rtdbload's
// zero-lost-acked-writes assertion dereferences these by name; losing a row
// silently turns the durability check into a hard failure after failover.
func TestMetricsDurabilityRows(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), FS: faultfs.OS{}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, _, addr := startNet(t, server.Config{Sessions: 2, Log: l}, Options{})

	mm := fetchMetricRows(t, addr)
	for _, name := range []string{"wal_seq", "wal_durable", "epoch", "repl_durable"} {
		if _, ok := mm[name]; !ok {
			t.Errorf("WAL-backed primary metrics missing %q (got %d rows)", name, len(mm))
		}
	}
	if got := mm["epoch"]; got != l.Epoch() {
		t.Errorf("epoch row = %d, want %d", got, l.Epoch())
	}
	if got := mm["wal_seq"]; got != l.Seq() {
		t.Errorf("wal_seq row = %d, want %d", got, l.Seq())
	}
	// No window is open (Sync-off log), so the durable tail equals the tail.
	if got := mm["wal_durable"]; got != mm["wal_seq"] {
		t.Errorf("wal_durable row = %d, want wal_seq %d", got, mm["wal_seq"])
	}
}

// TestMetricsFsyncRowsLive: the fsync_* and group_commit* rows are read
// from the WAL when the snapshot is taken, so a scrape over the wire in the
// middle of a run — long before Stop — already shows the fsyncs a synced
// log has paid, per-append and grouped alike.
func TestMetricsFsyncRowsLive(t *testing.T) {
	for _, window := range []time.Duration{0, 200 * time.Microsecond} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			l, err := wal.Open(wal.Options{Dir: "wal", FS: faultfs.NewMem(1), Sync: true, GroupWindow: window})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			cfg := testConfig()
			cfg.Log, cfg.Sessions = l, 2
			_, _, addr := startNet(t, cfg, Options{})
			c, err := client.Dial(addr, client.Options{Name: "fsync-probe"})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 8; i++ {
				if err := c.InjectSample("temp", fmt.Sprint(20+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			mm := fetchMetricRows(t, addr)
			if mm["fsync_count"] == 0 || mm["fsync_total_ns"] == 0 {
				t.Fatalf("mid-run fsync rows: count %d total_ns %d, want > 0", mm["fsync_count"], mm["fsync_total_ns"])
			}
			if st := l.Stats(); mm["fsync_count"] > st.FsyncCount {
				t.Errorf("fsync_count row %d ahead of the log's %d", mm["fsync_count"], st.FsyncCount)
			}
			if window > 0 && (mm["group_commits"] == 0 || mm["grouped_appends"] == 0) {
				t.Errorf("mid-run group-commit rows: commits %d appends %d, want > 0",
					mm["group_commits"], mm["grouped_appends"])
			}
		})
	}
}

// TestMetricsFaultPathRows: every wire-hardening drop path reports under a
// pinned row name — corrupt frames reset on CRC damage, write timeouts
// evict dead-weight readers, repl stall evictions cut wedged followers.
// The torture sweeps and dashboards dereference these by name to prove no
// drop path is silent; losing a row un-counts a whole failure family.
func TestMetricsFaultPathRows(t *testing.T) {
	_, _, addr := startNet(t, server.Config{Sessions: 2}, Options{})

	mm := fetchMetricRows(t, addr)
	for _, name := range []string{
		"net_corrupt_frames", "net_write_timeouts", "net_repl_stall_evictions",
		"net_decode_errors", "net_write_drops",
	} {
		if _, ok := mm[name]; !ok {
			t.Errorf("metrics frame missing pinned fault-path row %q", name)
		}
	}
}

// TestMetricsDurabilityRowsNoWAL: an ephemeral (WAL-less) server still
// reports epoch and repl_durable; wal_seq is rightly absent because there
// is no durable tail to advertise.
func TestMetricsDurabilityRowsNoWAL(t *testing.T) {
	_, _, addr := startNet(t, server.Config{Sessions: 2}, Options{})

	mm := fetchMetricRows(t, addr)
	for _, name := range []string{"epoch", "repl_durable"} {
		if _, ok := mm[name]; !ok {
			t.Errorf("ephemeral server metrics missing %q", name)
		}
	}
	if _, ok := mm["wal_seq"]; ok {
		t.Error("ephemeral server advertises wal_seq with no WAL behind it")
	}
}
