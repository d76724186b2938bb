package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestValidateFlags: flag combinations rtdbd cannot honour together are
// refused up front instead of one flag being silently dropped.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    config
		want string // substring of the error; "" means accepted
	}{
		{"primary", config{shards: 1}, ""},
		{"sharded primary", config{shards: 4, dir: "d"}, ""},
		{"replica", config{shards: 1, dir: "d", replicaOf: "p:1"}, ""},
		{"promote", config{shards: 1, dir: "d", promote: true}, ""},
		{"no shards", config{shards: 0}, "at least one shard"},
		{"sharded replica", config{shards: 2, dir: "d", replicaOf: "p:1"}, "-shards 2"},
		{"sharded promote", config{shards: 3, dir: "d", promote: true}, "-shards 3"},
		{"promote while following", config{shards: 1, dir: "d", replicaOf: "p:1", promote: true}, "-replica-of"},
		{"promote without dir", config{shards: 1, promote: true}, "-promote needs -dir"},
		{"replica without dir", config{shards: 1, replicaOf: "p:1"}, "-replica-of needs -dir"},
	} {
		err := tc.c.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestRunRecovers runs the synthetic workload twice on one WAL directory,
// for one shard and for three: the first run starts fresh logs, the second
// recovers every shard's log, and both close the standing-query audit and
// the conservation law (run fails otherwise).
func TestRunRecovers(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			c := config{
				dir: t.TempDir(), shards: shards, sessions: 4, ops: 40,
				segSize: 1 << 20, snapshot: 2000, fsyncWin: 200 * time.Microsecond,
				evalCost: 2, deadln: 40, queue: 64,
			}
			for pass, want := range []string{"fresh log", "recovered"} {
				var out bytes.Buffer
				if err := run(c, &out); err != nil {
					t.Fatalf("pass %d: %v\n%s", pass, err, out.String())
				}
				got := out.String()
				for i := 0; i < shards; i++ {
					if !strings.Contains(got, fmt.Sprintf("shard %d: %s", i, want)) {
						t.Errorf("pass %d: no %q line for shard %d:\n%s", pass, want, i, got)
					}
				}
				for _, line := range []string{"standing query:", "\nconservation:"} {
					if !strings.Contains(got, line) {
						t.Errorf("pass %d: output lacks %q:\n%s", pass, line, got)
					}
				}
				if regexp.MustCompile(`(?m)^chronon +0$`).MatchString(got) {
					t.Errorf("pass %d: aggregated chronon row reads 0:\n%s", pass, got)
				}
			}
		})
	}
}
