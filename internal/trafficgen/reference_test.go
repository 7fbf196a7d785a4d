package trafficgen

// The generator as it stood before seedfork.CountedSource owned its
// state: integer draws through a *rand.Rand over a counted wrapper of
// rand.NewSource, byte fills through a byte reader over the
// rand.Source64 interface, and SOCKS targets formatted and re-parsed
// per flow. Kept verbatim as the oracle the production generator is
// checked against call for call (equivalence_test.go).

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"sslab/internal/socks"
	"sslab/internal/sscrypto"
)

// refSource wraps the standard math/rand source with a draw counter.
type refSource struct {
	src rand.Source64
	n   uint64
}

func newRefSource(seed int64) *refSource {
	return &refSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *refSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *refSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *refSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

func (c *refSource) Draws() uint64 { return c.n }

func (c *refSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.n += n
}

// refByteReader is math/rand.(*Rand).Read's byte extraction with
// exported state, one byte per loop iteration.
type refByteReader struct {
	Val uint64
	Pos int8
}

func (r *refByteReader) Read(src rand.Source64, p []byte) (int, error) {
	pos, val := r.Pos, r.Val
	for n := 0; n < len(p); n++ {
		if pos == 0 {
			val = src.Uint64()
			pos = 7
		}
		p[n] = byte(val)
		val >>= 8
		pos--
	}
	r.Pos, r.Val = pos, val
	return len(p), nil
}

// referenceGenerator produces first flights deterministically from a seed.
type referenceGenerator struct {
	seed int64
	// src is the counted source behind rng, so the generator's stream
	// position — (seed, draw count) plus the byte reader's leftover —
	// serializes into RNGState for engine snapshots.
	src *refSource
	rd  refByteReader
	rng *rand.Rand
	// scratch holds the intermediate plaintext of AppendFirstWirePacket
	// so the population-scale hot path reuses one buffer per generator.
	scratch []byte
}

// newReference returns a referenceGenerator.
func newReference(seed int64) *referenceGenerator {
	src := newRefSource(seed)
	return &referenceGenerator{seed: seed, src: src, rng: rand.New(src)}
}

// read fills p with random bytes through the serializable byte reader;
// it produces exactly the bytes rng.Read would, but with the partially
// consumed draw in exported state (see refByteReader).
func (g *referenceGenerator) read(p []byte) {
	g.rd.Read(g.src, p)
}

// CaptureRNG returns the generator's current stream position.
func (g *referenceGenerator) CaptureRNG() RNGState {
	return RNGState{Draws: g.src.Draws(), ReadVal: g.rd.Val, ReadPos: g.rd.Pos}
}

// RestoreRNG rewinds the generator to a captured stream position by
// reconstructing the source from the seed and fast-forwarding.
func (g *referenceGenerator) RestoreRNG(st RNGState) {
	src := newRefSource(g.seed)
	src.Skip(st.Draws)
	g.src = src
	g.rng = rand.New(src)
	g.rd = refByteReader{Val: st.ReadVal, Pos: st.ReadPos}
}

// Target returns a host:port a client would visit under the workload.
func (g *referenceGenerator) Target(w Workload) string {
	switch w {
	case CurlHTTP:
		return sites[g.rng.Intn(len(sites))] + ":80"
	case CurlLoop:
		site := curlSites[g.rng.Intn(len(curlSites))]
		if scheme, rest, _ := strings.Cut(site, "://"); scheme == "http" {
			return rest + ":80"
		} else {
			return rest + ":443"
		}
	default:
		return sites[g.rng.Intn(len(sites))] + ":443"
	}
}

// PlaintextFirstFlight builds the plaintext a Shadowsocks client sends in
// its first packet: the SOCKS-style target specification followed by the
// first application bytes (an HTTP request or a TLS ClientHello).
func (g *referenceGenerator) PlaintextFirstFlight(w Workload) []byte {
	return g.AppendPlaintextFirstFlight(nil, w)
}

// AppendPlaintextFirstFlight appends the plaintext first flight to dst
// and returns the extended slice. It draws exactly the random values
// PlaintextFirstFlight draws, so the two forms are interchangeable
// mid-stream; the append form exists for population-scale callers that
// amortize one buffer over millions of flows.
func (g *referenceGenerator) AppendPlaintextFirstFlight(dst []byte, w Workload) []byte {
	target := g.Target(w)
	addr, err := socks.ParseAddr(target)
	if err != nil {
		panic(err) // targets above are all well-formed
	}
	dst = addr.Append(dst)
	if addr.Port == 80 {
		return g.appendHTTPGET(dst, addr.Host)
	}
	return g.appendClientHello(dst, addr.Host)
}

// appendHTTPGET appends a curl-like request.
func (g *referenceGenerator) appendHTTPGET(dst []byte, host string) []byte {
	return fmt.Appendf(dst,
		"GET %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: curl/7.%d.0\r\nAccept: */*\r\n\r\n",
		getPaths[g.rng.Intn(len(getPaths))], host, 50+g.rng.Intn(20))
}

// clientHello builds a TLS-ClientHello-shaped first flight: a 5-byte
// record header and a body whose length distribution (session ticket, key
// shares, padding) matches modern browsers (~250–600 bytes) and whose
// byte-level structure matches a real hello: about a third genuinely
// random (client random, session id, key share) and the rest structural —
// extension framing, cipher-suite ids, zero padding, and the plaintext
// SNI. The resulting per-byte entropy of ≈5–6 bits is what lets the GFW's
// entropy feature keep direct TLS below fully encrypted protocols.
func (g *referenceGenerator) appendClientHello(dst []byte, host string) []byte {
	body := 220 + g.rng.Intn(360)
	start := len(dst)
	dst = append(slices.Grow(dst, 5+body), zeros[:5+body]...)
	rec := dst[start:]
	rec[0] = 0x16 // handshake
	rec[1], rec[2] = 0x03, 0x01
	rec[3], rec[4] = byte(body>>8), byte(body)

	b := rec[5:]
	nRand := len(b) / 3 // client random + session id + X25519 key share
	g.read(b[:nRand])
	for i := nRand; i < len(b); i++ {
		b[i] = helloStructural[g.rng.Intn(len(helloStructural))]
	}
	copy(b[nRand+4:], host) // plaintext SNI
	return dst
}

// WireFirstPacket converts a plaintext first flight to the wire bytes a
// Shadowsocks connection of the given cipher would produce. Because
// Shadowsocks ciphertext is computationally indistinguishable from random
// bytes, the simulator represents it as random bytes of the correct
// length: IV + payload for stream ciphers, salt + sealed length + sealed
// payload for AEAD.
func (g *referenceGenerator) WireFirstPacket(spec sscrypto.Spec, plaintext []byte) []byte {
	var n int
	if spec.Kind == sscrypto.Stream {
		n = spec.IVSize + len(plaintext)
	} else {
		n = spec.SaltSize() + 2 + 16 + len(plaintext) + 16
	}
	out := make([]byte, n)
	g.read(out)
	return out
}

// FirstWirePacket is a convenience combining the two steps.
func (g *referenceGenerator) FirstWirePacket(spec sscrypto.Spec, w Workload) []byte {
	return g.AppendFirstWirePacket(nil, spec, w)
}

// AppendOpenVPNClientReset appends the first packet of an OpenVPN-over-TCP
// handshake: a client hard reset, optionally wrapped with tls-auth.
func (g *referenceGenerator) AppendOpenVPNClientReset(dst []byte, tlsAuth bool) []byte {
	n := ovpnResetPlainLen
	if tlsAuth {
		n = ovpnResetAuthLen
	}
	start := len(dst)
	dst = append(slices.Grow(dst, n), zeros[:n]...)
	p := dst[start:]
	p[0], p[1] = byte((n-2)>>8), byte(n-2)
	p[2] = ovpnOpcodeHardResetClientV2 << 3 // key ID 0
	g.read(p[3:11])                         // session ID
	if tlsAuth {
		g.read(p[11:31]) // HMAC
		p[34] = 1        // replay packet ID 1
		g.read(p[35:39]) // net time
	}
	// Remaining bytes stay zero: empty ACK array, message packet ID 0.
	return dst
}

// AppendObfsFirstPacket appends an obfs-style fully encrypted first
// packet: uniformly random bytes with no framing, no length prefix and
// no printable prelude — the look-like-nothing shape of obfs2/obfs4 and
// the post-2021 Shadowsocks-like transports the GFW's fully-encrypted
// heuristic targets.
func (g *referenceGenerator) AppendObfsFirstPacket(dst []byte) []byte {
	n := 160 + g.rng.Intn(740)
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	g.read(dst[start:])
	return dst
}

// AppendWebFirstPacket appends a direct (unproxied) web first packet: the
// same HTTP GET or TLS ClientHello the tunneled workloads would carry,
// but with no SOCKS address prefix and no encryption layer. This is the
// innocuous-traffic baseline detector chains are scored against for
// false positives.
func (g *referenceGenerator) AppendWebFirstPacket(dst []byte) []byte {
	target := g.Target(CurlLoop)
	addr, err := socks.ParseAddr(target)
	if err != nil {
		panic(err)
	}
	if addr.Port == 80 {
		return g.appendHTTPGET(dst, addr.Host)
	}
	return g.appendClientHello(dst, addr.Host)
}

// AppendProtocolFirstPacket appends the first wire packet for any
// workload: protocol-native packets for the OpenVPN, obfs and direct-web
// workloads, and Shadowsocks wire form (via spec) for everything else.
// Shadowsocks callers keep their exact pre-existing draw order.
func (g *referenceGenerator) AppendProtocolFirstPacket(dst []byte, spec sscrypto.Spec, w Workload) []byte {
	switch w {
	case OpenVPNTCP:
		return g.AppendOpenVPNClientReset(dst, false)
	case OpenVPNTCPAuth:
		return g.AppendOpenVPNClientReset(dst, true)
	case ObfsFirst:
		return g.AppendObfsFirstPacket(dst)
	case WebDirect:
		return g.AppendWebFirstPacket(dst)
	default:
		return g.AppendFirstWirePacket(dst, spec, w)
	}
}

// AppendFirstWirePacket appends a complete first wire packet to dst and
// returns the extended slice. Random draws match FirstWirePacket
// exactly (plaintext first, then one wire-length Read), so mixing the
// two forms on one Generator keeps the stream aligned. The plaintext
// intermediate lives in a per-Generator scratch buffer; in steady state
// the call allocates nothing once dst's capacity suffices.
func (g *referenceGenerator) AppendFirstWirePacket(dst []byte, spec sscrypto.Spec, w Workload) []byte {
	g.scratch = g.AppendPlaintextFirstFlight(g.scratch[:0], w)
	var n int
	if spec.Kind == sscrypto.Stream {
		n = spec.IVSize + len(g.scratch)
	} else {
		n = spec.SaltSize() + 2 + 16 + len(g.scratch) + 16
	}
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	g.read(dst[start:])
	return dst
}
