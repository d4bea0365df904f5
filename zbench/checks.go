package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"

	wl "zion/internal/workloads"
)

// check counts one attempted operation, and a failure when ok is false.
func (rs *roundStats) check(ok bool, format string, args ...any) {
	rs.attempted++
	if !ok {
		rs.failed++
		fmt.Fprintf(os.Stderr, "zbench: check failed: "+format+"\n", args...)
	}
}

// fingerprint is a simulated-domain summary of a round: instructions,
// cycles, exits by kind and histogram counts and sums. It must repeat
// exactly for every round of a seed; any difference is a failed
// operation.
type fingerprint map[string]uint64

func (f fingerprint) add(key string, v uint64) { f[key] += v }

func (f fingerprint) keys() []string {
	ks := make([]string, 0, len(f))
	for k := range f {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// diff names the first key whose value differs, or returns "".
func (f fingerprint) diff(o fingerprint) string {
	seen := map[string]bool{}
	for _, k := range append(f.keys(), o.keys()...) {
		if seen[k] {
			continue
		}
		seen[k] = true
		if f[k] != o[k] {
			return fmt.Sprintf("%s: %d vs %d", k, f[k], o[k])
		}
	}
	return ""
}

// digest is a short stable hash, printed so runs in separate processes
// can be compared too.
func (f fingerprint) digest() string {
	h := sha256.New()
	for _, k := range f.keys() {
		fmt.Fprintf(h, "%s=%d\n", k, f[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// counts are per-layer event counts, summed over a round.
type counts map[string]float64

// kvMirror is the Go model of the guest key-value server: the response
// every request must get, given the requests before it.
type kvMirror map[uint64]uint64

// apply executes one request against the mirror and returns the expected
// (status, value) pair, following the server's semantics: GET and INCR
// of a missing key fail with status 1; LPUSH keeps the list length in the
// value slot (a first push stores the pushed value); SADD reports 0 when
// the key already exists; EXISTS reports presence.
func (m kvMirror) apply(op wl.RedisOp, key, val uint64) (byte, uint64) {
	cur, ok := m[key]
	switch op {
	case wl.OpGET:
		if !ok {
			return 1, 0
		}
		return 0, cur
	case wl.OpSET:
		m[key] = val
		return 0, val
	case wl.OpINCR:
		if !ok {
			return 1, 0
		}
		m[key] = cur + 1
		return 0, cur + 1
	case wl.OpLPUSH:
		if !ok {
			m[key] = val
			return 0, val
		}
		m[key] = cur + 1
		return 0, cur + 1
	case wl.OpSADD:
		if ok {
			return 0, 0
		}
		m[key] = val
		return 0, val
	case wl.OpEXISTS:
		if ok {
			return 0, 1
		}
		return 0, 0
	}
	return 2, 0
}

// kvResponseOK checks one response frame against the mirror's answer.
func kvResponseOK(frame []byte, status byte, value uint64) bool {
	st, v, ok := wl.DecodeRedisResponse(frame)
	return ok && st == status && v == value
}

// badSectors counts disk sectors that are neither all zero nor the write
// pattern, plus sectors whose state disagrees with the set of sectors the
// driver wrote (written may be nil when that set is unknown).
func badSectors(disk, pattern []byte, written map[uint64]bool) int {
	bad := 0
	zero := make([]byte, len(pattern))
	for s := 0; (s+1)*len(pattern) <= len(disk); s++ {
		sec := disk[s*len(pattern) : (s+1)*len(pattern)]
		isPat := bytes.Equal(sec, pattern)
		switch {
		case !isPat && !bytes.Equal(sec, zero):
			bad++
		case written != nil && isPat != written[uint64(s)]:
			bad++
		}
	}
	return bad
}

// rng is splitmix64: the one source of every seeded input.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
