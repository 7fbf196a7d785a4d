package trafficgen

import (
	"bytes"
	"math/rand"
	"testing"

	"sslab/internal/sscrypto"
)

// equivalenceCalls drives a production Generator and the pre-rewrite
// referenceGenerator with equal seeds through n calls picked by
// pick over every public entry point, workload and stream/AEAD spec,
// and fails at the first call whose bytes, target or captured stream
// position differ. Every 9973rd call also round-trips both generators
// through CaptureRNG/RestoreRNG.
func equivalenceCalls(t *testing.T, seed int64, n int, pick *rand.Rand) {
	t.Helper()
	var specs []sscrypto.Spec
	for _, m := range []string{"aes-256-cfb", "aes-256-ctr", "chacha20-ietf", "aes-128-gcm", "aes-256-gcm", "chacha20-ietf-poly1305"} {
		spec, err := sscrypto.Lookup(m)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	workloads := []Workload{CurlHTTP, CurlHTTPS, BrowseAlexa, CurlLoop, OpenVPNTCP, OpenVPNTCPAuth, ObfsFirst, WebDirect}
	ssWorkloads := workloads[:4]
	g, ref := New(seed), newReference(seed)
	var got, want []byte
	for i := 0; i < n; i++ {
		spec := specs[pick.Intn(len(specs))]
		w := workloads[pick.Intn(len(workloads))]
		ssw := ssWorkloads[pick.Intn(len(ssWorkloads))]
		op := pick.Intn(8)
		got, want = got[:0], want[:0]
		switch op {
		case 0:
			got = g.AppendProtocolFirstPacket(got, spec, w)
			want = ref.AppendProtocolFirstPacket(want, spec, w)
		case 1:
			got = g.AppendFirstWirePacket(got, spec, ssw)
			want = ref.AppendFirstWirePacket(want, spec, ssw)
		case 2:
			got = g.AppendPlaintextFirstFlight(got, ssw)
			want = ref.AppendPlaintextFirstFlight(want, ssw)
		case 3:
			got = g.FirstWirePacket(spec, ssw)
			want = ref.FirstWirePacket(spec, ssw)
		case 4:
			got = g.WireFirstPacket(spec, g.PlaintextFirstFlight(ssw))
			want = ref.WireFirstPacket(spec, ref.PlaintextFirstFlight(ssw))
		case 5:
			got = append(got, g.Target(w)...)
			want = append(want, ref.Target(w)...)
		case 6:
			auth := pick.Intn(2) == 0
			got = g.AppendOpenVPNClientReset(got, auth)
			want = ref.AppendOpenVPNClientReset(want, auth)
		case 7:
			got = g.AppendWebFirstPacket(got)
			want = ref.AppendWebFirstPacket(want)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d call %d (op %d, %v, %s): %d bytes differ from the reference's %d\n got %x\nwant %x",
				seed, i, op, w, spec.Name, len(got), len(want), got, want)
		}
		if gs, rs := g.CaptureRNG(), ref.CaptureRNG(); gs != rs {
			t.Fatalf("seed %d call %d (op %d): stream position %+v, reference %+v", seed, i, op, gs, rs)
		}
		if i%9973 == 0 {
			st := g.CaptureRNG()
			g.RestoreRNG(st)
			ref.RestoreRNG(st)
		}
	}
}

// TestGeneratorMatchesReference is the draw-identity contract of the
// concrete-source generator: 100k lockstep calls against the
// rand.Rand-based generator it replaced produce the same bytes and the
// same CaptureRNG position after every call, so every golden built on
// trafficgen output is unchanged.
func TestGeneratorMatchesReference(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	equivalenceCalls(t, 1, n, rand.New(rand.NewSource(2)))
	equivalenceCalls(t, -7, n/10, rand.New(rand.NewSource(3)))
}
