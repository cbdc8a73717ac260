// Package cluster is the sharded, replicated serving tier: a stateless
// router (cmd/cosrouter) in front of N shard-mode cosserve instances.
// Storage devices are assigned to shard nodes through the same Swift-style
// consistent-hash ring (internal/ring) the paper's system uses for objects —
// here the ring's "devices" are cluster nodes and each partition's replica
// chain is a primary plus warm standbys. The router dual-writes every
// ingested observation to the whole replica chain of its device, so a
// standby holds the same sliding windows and calibration state as its
// primary and can answer the moment the primary dies.
//
// Predictions merge exactly: the paper's mixture CDF (Eq. 3) is linear in
// the per-device weighted response CDFs, and the frontend sojourn factor
// depends only on the tier-wide total rate, so each shard evaluates its
// device slice under the router-supplied global rate and returns an
// additive partial (Σ rate_j·F_j(sla), Σ rate_j). The router's merge is a
// division — see MergePartials. When a shard's whole replica chain is down
// the router keeps serving from the survivors: the estimate renormalizes
// over the live rate, the response is flagged degraded, and per-SLA bounds
// widen to bracket what the missing devices could have contributed.
package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"cosmodel/internal/retry"
	"cosmodel/internal/ring"
)

// Cluster errors.
var (
	// ErrBadConfig reports an invalid cluster configuration.
	ErrBadConfig = errors.New("cluster: invalid configuration")
	// ErrNoQuorum reports that no shard could answer for any device.
	ErrNoQuorum = errors.New("cluster: no shard reachable")
)

// Config describes the router's view of the tier. Start from DefaultConfig.
type Config struct {
	// Nodes are the shard base URLs ("http://host:port"); the slice index is
	// the node's ring id.
	Nodes []string
	// Replicas is the replica-chain length per partition: 1 primary plus
	// Replicas-1 warm standbys. Requires len(Nodes) >= Replicas.
	Replicas int
	// Partitions is the ring partition count (a power of two).
	Partitions int
	// Seed fixes the ring assignment.
	Seed int64
	// Devices is the number of storage devices reporting to the tier.
	Devices int
	// SLAs are the default bounds (seconds) for /predict queries naming none.
	SLAs []float64
	// Window is the span (seconds) of the router's per-device rate tracker —
	// the source of the global frontend rate. Matches the shards' window.
	Window float64
	// HedgeDelay is how long the shard client waits on the preferred replica
	// before racing the request to the next one. 0 means no hedging (only
	// failover on error).
	HedgeDelay time.Duration
	// ProbeInterval is the health prober's period; 0 disables the prober
	// (tests drive probes explicitly).
	ProbeInterval time.Duration
	// FailThreshold is how many consecutive probe failures mark a node down.
	FailThreshold int
	// MaxInflight bounds concurrently fanned-out /predict and /advise
	// queries; excess is shed with 503 like a shard would.
	MaxInflight int
	// Retry is the per-attempt retry schedule for shard calls.
	Retry retry.Policy
	// Client issues the shard HTTP requests; nil uses a dedicated client
	// with sane timeouts.
	Client *http.Client
	// Now supplies wall-clock time; nil means time.Now.
	Now func() time.Time
	// Logf receives diagnostics; nil means the standard library logger.
	Logf func(format string, args ...any)
}

// DefaultConfig returns a router configuration for the given shard nodes
// and deployment size: 2 replicas (primary + one warm standby), 64
// partitions, 25ms hedging, 1s probing with 2-strike failure detection.
func DefaultConfig(nodes []string, devices int) Config {
	return Config{
		Nodes:         nodes,
		Replicas:      2,
		Partitions:    64,
		Devices:       devices,
		SLAs:          []float64{0.010, 0.050, 0.100},
		Window:        60,
		HedgeDelay:    25 * time.Millisecond,
		ProbeInterval: time.Second,
		FailThreshold: 2,
		MaxInflight:   64,
		Retry:         retry.DefaultPolicy(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case len(c.Nodes) == 0:
		return fmt.Errorf("%w: need at least one shard node", ErrBadConfig)
	case c.Replicas < 1 || c.Replicas > len(c.Nodes):
		return fmt.Errorf("%w: replicas %d outside [1,%d]", ErrBadConfig, c.Replicas, len(c.Nodes))
	case c.Devices < 1:
		return fmt.Errorf("%w: need at least one storage device", ErrBadConfig)
	case len(c.SLAs) == 0:
		return fmt.Errorf("%w: at least one default SLA required", ErrBadConfig)
	case c.Window <= 0:
		return fmt.Errorf("%w: window must be positive", ErrBadConfig)
	case c.MaxInflight < 1:
		return fmt.Errorf("%w: need at least one in-flight slot", ErrBadConfig)
	case c.FailThreshold < 1:
		return fmt.Errorf("%w: fail threshold must be at least 1", ErrBadConfig)
	}
	for _, s := range c.SLAs {
		if s <= 0 {
			return fmt.Errorf("%w: SLA %v must be positive", ErrBadConfig, s)
		}
	}
	for i, n := range c.Nodes {
		if n == "" {
			return fmt.Errorf("%w: node %d has an empty URL", ErrBadConfig, i)
		}
	}
	_, err := ring.New(c.Partitions, c.Replicas, len(c.Nodes), c.Seed)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

func (c Config) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// Topology maps storage devices to shard replica chains through the ring.
type Topology struct {
	ring   *ring.Ring
	nodes  int
	chains [][]int // per configured device, derived once
}

// NewTopology builds the device→shard assignment.
func NewTopology(cfg Config) (*Topology, error) {
	r, err := ring.New(cfg.Partitions, cfg.Replicas, len(cfg.Nodes), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	t := &Topology{ring: r, nodes: len(cfg.Nodes), chains: make([][]int, max(cfg.Devices, 0))}
	for d := range t.chains {
		t.chains[d] = t.chainOf(d)
	}
	return t, nil
}

// ChainFor returns the replica chain (node ids, primary first) responsible
// for a storage device. A configured device's chain is shared: callers
// must not modify it.
func (t *Topology) ChainFor(device int) []int {
	if device >= 0 && device < len(t.chains) {
		return t.chains[device]
	}
	return t.chainOf(device)
}

func (t *Topology) chainOf(device int) []int {
	devs := t.ring.ReplicasOf(t.ring.PartitionOfID(uint64(device)))
	chain := make([]int, len(devs))
	for i, d := range devs {
		chain[i] = int(d)
	}
	return chain
}

// CoverageGroup is one fan-out target: the live node chain (preferred
// first) and the storage devices it answers for.
type CoverageGroup struct {
	// Chain is the live portion of the replica chain, preferred node first.
	Chain []int
	// Devices are the storage devices this chain serves.
	Devices []int
	// Primary reports whether the preferred node is the chain's original
	// primary (false: the group is already failed over to a standby).
	Primary bool
}

// Coverage partitions the devices [0,devices) into fan-out groups given the
// current node liveness. Devices whose entire replica chain is down are
// returned in lost. Groups are keyed by their live chain, so two devices
// sharing the same surviving replicas travel in one request; group order is
// deterministic (sorted by chain signature) for stable tests and logs.
func (t *Topology) Coverage(devices int, up func(node int) bool) (groups []CoverageGroup, lost []int) {
	byChain := map[string]*CoverageGroup{}
	for d := 0; d < devices; d++ {
		full := t.ChainFor(d)
		var live []int
		for _, n := range full {
			if up(n) {
				live = append(live, n)
			}
		}
		if len(live) == 0 {
			lost = append(lost, d)
			continue
		}
		key := fmt.Sprint(live)
		g := byChain[key]
		if g == nil {
			g = &CoverageGroup{Chain: live, Primary: live[0] == full[0]}
			byChain[key] = g
		}
		g.Devices = append(g.Devices, d)
	}
	keys := make([]string, 0, len(byChain))
	for k := range byChain {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		groups = append(groups, *byChain[k])
	}
	return groups, lost
}
