package fleet

import (
	"testing"

	"sslab/internal/gfw"
)

// TestSeenOnlyWhereRead pins which server hosts hash genuine payloads
// into their replay-seen filter: only those whose probe path reads it.
// After a default-mix run the replay-defended shadowsocks-libev hosts'
// filters are untouched, while the shadowsocks-python, ShadowsocksR and
// Outline v1.0.7 hosts, which serve identical replays, hold payloads.
func TestSeenOnlyWhereRead(t *testing.T) {
	e, err := NewEngine(Config{
		Seed:           3,
		Users:          1000,
		UsersPerServer: 50,
		Hours:          2,
		BucketMin:      30,
		GFW:            gfw.Config{PoolSize: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTo(e.End()); err != nil {
		t.Fatal(err)
	}
	held := map[string]int{}
	for _, u := range e.units {
		for _, s := range u.servers {
			impl := u.cfg.Mix[s.implIdx].Impl
			n := s.host.seen.Len()
			switch impl {
			case "libev-old", "libev-new":
				if n != 0 {
					t.Errorf("%s host holds %d payloads; nothing reads its seen filter", impl, n)
				}
				st, err := s.host.srv.FilterState()
				if err != nil {
					t.Fatal(err)
				}
				held["libev nonces"] += st.PingPong.Gen[0].Entries + st.PingPong.Gen[1].Entries
			default:
				held[impl] += n
			}
		}
	}
	if held["libev nonces"] == 0 {
		t.Fatal("libev hosts registered no nonces; the run served them no genuine flows")
	}
	for _, impl := range []string{"sspython", "ssr", "outline"} {
		if held[impl] == 0 {
			t.Errorf("%s hosts hold no payloads; their probe path reads the seen filter", impl)
		}
	}
}
