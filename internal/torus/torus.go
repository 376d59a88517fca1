// Package torus models the 3D-torus interconnects of the Cray T3D
// and T3E: dimension-order wormhole routing over per-direction link
// resources, network-interface injection occupancy with per-message
// overhead, and (on the T3D) the sharing of one network access by two
// processing elements ("the actual implementation pairs two
// processing nodes with a single network access", §3.2 footnote).
package torus

import (
	"fmt"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/units"
)

// Config describes a torus network.
type Config struct {
	// X, Y, Z are the torus dimensions; nodes are numbered in
	// x-major order.
	X, Y, Z int

	// NIOverhead is the per-message injection overhead at the
	// network interface (partner switching, protocol).
	NIOverhead units.Time
	// NIPerByte is the per-byte injection cost at the NI — the
	// component that binds sustained transfer bandwidth.
	NIPerByte units.Time
	// LinkPerByte is the per-byte occupancy of each traversed link
	// (raw link rate; binds only under contention / AAPC).
	LinkPerByte units.Time
	// HopLatency is the per-hop routing latency.
	HopLatency units.Time
	// RecvFactor scales the receive-side NI occupancy relative to
	// the injection cost (the deposit circuitry sinks incoming
	// packets with less work than packet assembly takes; default 1).
	RecvFactor float64
	// SharedNI pairs nodes 2k and 2k+1 on a single network access
	// (Cray T3D).
	SharedNI bool

	// Probe is the registration scope for the network counters; a
	// zero scope registers into a private probe.
	Probe probe.Scope
}

// Network is a 3D torus with occupancy-tracked links and NIs.
type Network struct {
	cfg Config
	// links[dim][dir][node] is the outgoing link of node in
	// dimension dim (0=x,1=y,2=z), direction dir (0=+,1=-).
	links [3][2][]sim.Resource
	nis   []sim.Resource

	// plans caches the dimension-order route for each (src, dst)
	// pair: the topology is static, and Send is called once per
	// message on the transfer hot path. plans[src*n+dst] is nil
	// until first use; planOK marks computed entries (a same-node
	// route is a valid empty plan).
	plans  [][][3]int //simlint:ignore statereset route cache is address-independent and deterministic; Reset keeps it warm on purpose
	planOK []bool     //simlint:ignore statereset route cache is address-independent and deterministic; Reset keeps it warm on purpose

	ps probe.Scope
	// messagesSent and bytesSent count injected traffic; linkBytes
	// counts the bytes carried per dimension and direction.
	messagesSent probe.Counter
	bytesSent    probe.ByteCounter
	linkBytes    [3][2]probe.ByteCounter
}

// Stats is the comparable view of the network counters.
type Stats struct {
	// MessagesSent and BytesSent count injected traffic.
	MessagesSent int64
	BytesSent    units.Bytes
}

// Stats returns a snapshot of the counters.
func (net *Network) Stats() Stats {
	return Stats{MessagesSent: net.messagesSent.Get(), BytesSent: net.bytesSent.Get()}
}

// LinkBytes returns the bytes carried over links in dimension dim
// (0=x,1=y,2=z) and direction dir (0=+,1=-).
func (net *Network) LinkBytes(dim, dir int) units.Bytes {
	return net.linkBytes[dim][dir].Get()
}

// New builds a torus network. Dimensions default to 1.
func New(cfg Config) *Network {
	if cfg.X < 1 {
		cfg.X = 1
	}
	if cfg.Y < 1 {
		cfg.Y = 1
	}
	if cfg.Z < 1 {
		cfg.Z = 1
	}
	n := cfg.X * cfg.Y * cfg.Z
	net := &Network{cfg: cfg}
	for d := 0; d < 3; d++ {
		for dir := 0; dir < 2; dir++ {
			net.links[d][dir] = make([]sim.Resource, n, lineCap(n))
		}
	}
	nis := n
	if cfg.SharedNI {
		nis = (n + 1) / 2
	}
	net.nis = make([]sim.Resource, nis, lineCap(nis))
	net.plans = make([][][3]int, n*n)
	net.planOK = make([]bool, n*n)
	net.ps = cfg.Probe
	if !net.ps.Valid() {
		net.ps = probe.New().Scope("torus")
	}
	net.messagesSent = net.ps.Counter("messages")
	net.bytesSent = net.ps.ByteCounter("bytes")
	dimNames := [3]string{"x", "y", "z"}
	dirNames := [2]string{"+", "-"}
	for d := 0; d < 3; d++ {
		for dir := 0; dir < 2; dir++ {
			net.linkBytes[d][dir] = net.ps.Child("link").
				Child(dimNames[d] + dirNames[dir]).ByteCounter("bytes")
		}
	}
	return net
}

// lineCap rounds a resource count up to whole 64-byte host cache
// lines. Every Send writes the link and NI resources, and each worker
// of a parallel sweep owns a network: two networks' small resource
// arrays sharing a host cache line would bounce it between the
// workers' cores on every message, which made the T3E transfer
// surfaces three times slower in about half of the runs.
func lineCap(n int) int { return (n + 7) &^ 7 }

// Config returns the network configuration.
func (net *Network) Config() Config { return net.cfg }

// NumNodes returns the number of nodes in the torus.
func (net *Network) NumNodes() int { return net.cfg.X * net.cfg.Y * net.cfg.Z }

// coords converts a node id to torus coordinates.
func (net *Network) coords(id int) (x, y, z int) {
	x = id % net.cfg.X
	y = (id / net.cfg.X) % net.cfg.Y
	z = id / (net.cfg.X * net.cfg.Y)
	return
}

// ni returns the network-interface resource index serving node id.
func (net *Network) ni(id int) int {
	if net.cfg.SharedNI {
		return id / 2
	}
	return id
}

// hopPlan returns the dimension-order route from src to dst as a
// sequence of (dim, dir, fromNode) link traversals, taking the
// shorter way around each torus ring. Routes are computed once per
// (src, dst) pair and cached: the topology never changes, so Reset
// leaves the cache alone.
func (net *Network) hopPlan(src, dst int) [][3]int {
	key := src*net.NumNodes() + dst
	if net.planOK[key] {
		return net.plans[key]
	}
	plan := net.computePlan(src, dst)
	net.plans[key] = plan
	net.planOK[key] = true
	return plan
}

// computePlan builds the route cached by hopPlan.
func (net *Network) computePlan(src, dst int) [][3]int {
	dims := [3]int{net.cfg.X, net.cfg.Y, net.cfg.Z}
	var sc, dc [3]int
	sc[0], sc[1], sc[2] = net.coords(src)
	dc[0], dc[1], dc[2] = net.coords(dst)
	var plan [][3]int
	cur := sc
	for d := 0; d < 3; d++ {
		size := dims[d]
		delta := (dc[d] - cur[d] + size) % size
		dir := 0
		steps := delta
		if delta > size/2 {
			dir = 1
			steps = size - delta
		}
		for s := 0; s < steps; s++ {
			id := cur[0] + net.cfg.X*(cur[1]+net.cfg.Y*cur[2])
			plan = append(plan, [3]int{d, dir, id})
			if dir == 0 {
				cur[d] = (cur[d] + 1) % size
			} else {
				cur[d] = (cur[d] - 1 + size) % size
			}
		}
	}
	return plan
}

// Hops returns the dimension-order hop count from src to dst.
func (net *Network) Hops(src, dst int) int { return len(net.hopPlan(src, dst)) }

// Send injects a message of n bytes from src to dst at time now and
// returns its delivery-completion time at the destination NI. The
// source NI is occupied for the injection cost, each traversed link
// for its transfer occupancy (wormhole: the head moves at HopLatency
// per hop, the body occupies links for the per-byte transfer time),
// and the destination NI for the receive cost — an NI handles both
// directions, which is what makes the T3D's request/response fetch
// path so much slower than its one-way deposits (§5.4).
func (net *Network) Send(src, dst int, n units.Bytes, now units.Time) units.Time {
	net.messagesSent.Inc()
	net.bytesSent.Add(n)

	occ := net.cfg.NIOverhead + net.cfg.NIPerByte.ByteCost(n)
	start := net.nis[net.ni(src)].Acquire(now, occ)
	t := start + occ
	if src == dst {
		return t
	}
	xfer := net.cfg.LinkPerByte.ByteCost(n)
	for _, hop := range net.hopPlan(src, dst) {
		res := &net.links[hop[0]][hop[1]][hop[2]]
		s := res.Acquire(t, xfer)
		t = s + net.cfg.HopLatency
		net.linkBytes[hop[0]][hop[1]].Add(n)
	}
	t += xfer
	rocc := occ
	if net.cfg.RecvFactor > 0 {
		rocc = occ.Scale(net.cfg.RecvFactor)
	}
	recv := net.nis[net.ni(dst)].Acquire(t, rocc)
	done := recv + rocc
	if tr := net.ps.Tracer(); tr != nil {
		tr.SpanArg("net.send", "net", int32(src), now, done, "bytes", int64(n))
	}
	return done
}

// NIBusyUntil returns the earliest time node id's network interface
// could inject a new message at time now.
func (net *Network) NIBusyUntil(id int, now units.Time) units.Time {
	return net.nis[net.ni(id)].Peek(now)
}

// Reset clears all occupancy state and counters.
func (net *Network) Reset() {
	for d := 0; d < 3; d++ {
		for dir := 0; dir < 2; dir++ {
			for i := range net.links[d][dir] {
				net.links[d][dir][i].Reset()
			}
		}
	}
	for i := range net.nis {
		net.nis[i].Reset()
	}
	net.ps.Reset()
}

// String describes the topology.
func (net *Network) String() string {
	shared := ""
	if net.cfg.SharedNI {
		shared = ", shared NI per node pair"
	}
	return fmt.Sprintf("%dx%dx%d torus%s", net.cfg.X, net.cfg.Y, net.cfg.Z, shared)
}
