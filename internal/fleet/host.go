package fleet

import (
	"bytes"
	"encoding/binary"

	"sslab/internal/bloom"
	"sslab/internal/defense"
	"sslab/internal/detector"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
)

// serverHost is the fleet's server endpoint for all protocol families.
//
// For Shadowsocks it keeps the experiment package's ServerHost semantics
// — genuine clients are served and their nonces enter the replay filter;
// identical replays against a server without replay defense are served
// with data; everything else gets the reaction engine's verdict — but
// in bounded memory. Where ServerHost keys every payload ever seen in an
// unbounded map, the fleet host remembers payload hashes in a Bloom
// filter sized for the epoch's expected flow count, whose storage grows
// with the payloads it holds up to that bound: a false positive
// (mistaking a fresh probe payload for a replay) is ≪0.1% and only
// matters for undefended servers, whose genuine replays dominate their
// evidence anyway. Only hosts whose probe path reads the filter — a
// Shadowsocks server without replay defense, a probe-answering obfs
// server — hash payloads into it.
//
// The other protocol families model each deployment's probe posture:
//
//   - OpenVPN without tls-auth answers any well-formed client reset
//     (including a replayed one) and RSTs garbage — the reachable
//     fingerprint Xue et al. exploited; with tls-auth every
//     unauthenticated packet is silently dropped, so probes time out.
//   - obfs2-era transports accept replayed handshakes (data) and close
//     loudly on malformed input; obfs4-style transports are
//     probe-silent.
//   - Web servers answer HTTP and TLS probes like any public site —
//     responses to probes are normal here, and blocks against them are
//     false positives.
type serverHost struct {
	f      *Fleet
	srv    *reaction.Server // Shadowsocks only; nil for other protocols
	proto  protoKind
	silent bool
	// readsSeen marks the hosts whose probe path tests seen: identical
	// replays are served only where no replay defense stops them.
	readsSeen bool
	seen      *bloom.Filter
	key       [8]byte
}

// newServerHost sizes the replay-seen filter for the server's expected
// epoch traffic: users × hours × peak rate, with headroom.
func newServerHost(f *Fleet, srv *reaction.Server, proto protoKind, silent bool, usersPerServer, hours int, peakRate float64) *serverHost {
	capacity := int(float64(usersPerServer*hours)*peakRate*1.5) + 64
	return &serverHost{
		f:         f,
		srv:       srv,
		proto:     proto,
		silent:    silent,
		readsSeen: (proto == protoSS && !srv.Profile.ReplayDefense) || (proto == protoObfs && !silent),
		seen:      bloom.New(capacity, 1e-3),
	}
}

// hashPayload reduces a first payload to the 8-byte key the Bloom
// filter stores — inline FNV-1a, so the per-flow path stays
// allocation-free (hash.Hash64 construction would allocate).
//
//sslab:hotpath
func (h *serverHost) hashPayload(p []byte) []byte {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	sum := uint64(offset64)
	for _, b := range p {
		sum ^= uint64(b)
		sum *= prime64
	}
	binary.BigEndian.PutUint64(h.key[:], sum)
	return h.key[:]
}

var httpGET = []byte("GET ")
var httpPOST = []byte("POST ")

// HandleFlow implements netsim.Host.
//
//sslab:hotpath
func (h *serverHost) HandleFlow(fl *netsim.Flow) netsim.Outcome {
	now := h.f.sim.Now()
	if !fl.Probe {
		// A flow silenced by null-routing carries no payload; the server
		// never saw a connection, so nothing enters the replay filter.
		if fl.FirstPayload == nil {
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if h.proto == protoSS {
			h.srv.RegisterNonce(fl.FirstPayload, now)
		}
		if h.readsSeen {
			h.seen.Add(h.hashPayload(fl.FirstPayload))
		}
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
	}
	switch h.proto {
	case protoOpenVPN:
		if h.silent {
			// tls-auth: the HMAC check fails on anything the prober can
			// synthesize or replay; the server says nothing.
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if _, ok := detector.ParseClientReset(fl.FirstPayload); ok {
			// A well-formed (or replayed) reset elicits the server's own
			// hard reset — the byte-identifiable reply probes look for.
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 100}
		}
		return netsim.Outcome{Reaction: reaction.RST}
	case protoObfs:
		if h.silent {
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if fl.FirstPayload != nil && h.seen.Test(h.hashPayload(fl.FirstPayload)) {
			// obfs2 has no replay protection: the replayed handshake
			// completes and the server answers with data.
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 600}
		}
		return netsim.Outcome{Reaction: reaction.FINACK}
	case protoWeb:
		if bytes.HasPrefix(fl.FirstPayload, httpGET) || bytes.HasPrefix(fl.FirstPayload, httpPOST) {
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
		}
		if defense.IsTLSFramed(fl.FirstPayload) {
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
		}
		// Garbage at a web port: the HTTP server closes after a parse
		// error, having read the request.
		return netsim.Outcome{Reaction: reaction.FINACK}
	}
	if !h.srv.Profile.ReplayDefense && fl.FirstPayload != nil && h.seen.Test(h.hashPayload(fl.FirstPayload)) {
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 800}
	}
	r := h.srv.ReactAt(fl.FirstPayload, fl.GeneratedAt, now)
	return netsim.Outcome{Reaction: r.Reaction}
}
