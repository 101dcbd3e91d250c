// Package peer turns N ecserver processes into one erasure-coded
// cluster: static membership (a list of id=url members), a deterministic
// placement ring mapping every object's k+r shards onto distinct
// members, a Transport seam for the internal shard-transfer API, an HTTP
// client implementation with connection pooling, timeouts, bounded
// retries and health tracking, and a fault-injecting transport double so
// partition, slow-peer and torn-transfer scenarios are deterministic in
// tests — the internal/vfs + internal/faultfs idea generalized from the
// disk seam to the wire.
//
// The package sits below internal/server (which implements the peer API
// handler, the local transport, and the gateway that fans shards out) and
// deliberately knows nothing about stores, manifests or HTTP handlers:
// only members, placements and shard/meta transfer operations.
package peer

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Member is one cluster node: a stable integer identity and the base URL
// of its ecserver process (e.g. http://10.0.0.7:8080). Identity and
// address are separate on purpose — a rebuilt node keeps its ID even when
// it comes back on a new address, so placements computed before the
// failure still name it.
type Member struct {
	ID   int
	Addr string
}

// ParseMembers parses a static membership spec of the form
// "0=http://a:8080,1=http://b:8080,2=http://c:8080".
func ParseMembers(spec string) ([]Member, error) {
	var ms []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := parseMember(part)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("peer: empty membership spec")
	}
	return ms, nil
}

// LoadMembers reads a membership file: one "id=url" entry per line, blank
// lines and #-comments ignored. A file (rather than a flag) is how a
// fleet shares one membership document across all peers.
func LoadMembers(path string) ([]Member, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []Member
	for ln, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m, err := parseMember(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln+1, err)
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("peer: %s: no members", path)
	}
	return ms, nil
}

func parseMember(s string) (Member, error) {
	id, addr, ok := strings.Cut(s, "=")
	if !ok {
		return Member{}, fmt.Errorf("peer: member %q is not id=url", s)
	}
	n, err := strconv.Atoi(strings.TrimSpace(id))
	if err != nil || n < 0 {
		return Member{}, fmt.Errorf("peer: member %q has invalid id", s)
	}
	addr = strings.TrimSuffix(strings.TrimSpace(addr), "/")
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		return Member{}, fmt.Errorf("peer: member %q address must be http(s)://", s)
	}
	return Member{ID: n, Addr: addr}, nil
}

// Ring is the cluster's deterministic shard-placement function over a
// static membership. Placement is pure — every gateway computes the same
// answer from the same membership with no coordination — which is what
// lets any peer serve as the client-facing gateway.
type Ring struct {
	members []Member // sorted by ID
	byID    map[int]Member
}

// NewRing builds a ring over members. IDs must be unique.
func NewRing(members []Member) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("peer: ring needs at least one member")
	}
	r := &Ring{byID: make(map[int]Member, len(members))}
	for _, m := range members {
		if _, dup := r.byID[m.ID]; dup {
			return nil, fmt.Errorf("peer: duplicate member id %d", m.ID)
		}
		r.byID[m.ID] = m
		r.members = append(r.members, m)
	}
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].ID < r.members[j].ID })
	return r, nil
}

// Members returns the membership, sorted by ID.
func (r *Ring) Members() []Member { return r.members }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Member returns the member with the given ID.
func (r *Ring) Member(id int) (Member, bool) {
	m, ok := r.byID[id]
	return m, ok
}

// Placement maps an object key to the member IDs holding its n shards:
// shard i lands on the (h+i)'th member of the sorted ring, where h hashes
// the key. Consecutive shards of one object land on distinct members (the
// failure-domain invariant Store's rotating placement keeps across node
// directories), and the hashed start spreads different objects'
// load across the fleet. n must not exceed the membership size — a stripe
// cannot put two shards in one failure domain.
func (r *Ring) Placement(key string, n int) ([]int, error) {
	if n > len(r.members) {
		return nil, fmt.Errorf("peer: %d members cannot hold %d shards in distinct failure domains",
			len(r.members), n)
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	start := int(h.Sum64() % uint64(len(r.members)))
	p := make([]int, n)
	for i := range p {
		p[i] = r.members[(start+i)%len(r.members)].ID
	}
	return p, nil
}
