package stableleader

import (
	"errors"
	"fmt"
	"time"

	"stableleader/id"
	"stableleader/internal/election"
	"stableleader/qos"
)

// Algorithm selects the leader election core used within a group. See the
// package documentation for the trade-offs.
type Algorithm int

// Available election algorithms.
const (
	// OmegaL is the communication-efficient algorithm (service S3 of the
	// paper): eventually only the leader sends heartbeats.
	OmegaL Algorithm = Algorithm(election.OmegaL)
	// OmegaLC tolerates crashed links via leader forwarding (service S2).
	OmegaLC Algorithm = Algorithm(election.OmegaLC)
	// OmegaID is the unstable smallest-id baseline (service S1).
	OmegaID Algorithm = Algorithm(election.OmegaID)
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string { return election.Kind(a).String() }

// ParseAlgorithm converts a name ("omega-l", "omega-lc", "omega-id") into
// an Algorithm. It accepts the paper's service names (s1, s2, s3) and is
// the inverse of Algorithm.String.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "omega-l", "omegal", "s3", "S3":
		return OmegaL, nil
	case "omega-lc", "omegalc", "s2", "S2":
		return OmegaLC, nil
	case "omega-id", "omegaid", "s1", "S1":
		return OmegaID, nil
	default:
		return 0, fmt.Errorf("stableleader: unknown algorithm %q", s)
	}
}

// serviceConfig is the validated result of applying Options.
type serviceConfig struct {
	seed        int64
	clientPlane bool
	shards      int
}

// Option configures a Service at construction (see New).
type Option func(*serviceConfig) error

// WithSeed seeds the service's internal randomness (gossip peer choice).
// The default derives a seed from the clock; fixing it makes peer choice
// reproducible, which tests and simulations want.
func WithSeed(seed int64) Option {
	return func(c *serviceConfig) error {
		c.seed = seed
		return nil
	}
}

// WithShards sets the number of event-loop shards the service runs
// (default: one per schedulable CPU, capped at MaxShards). Each shard
// owns its own event loop, timer wheel, RNG and protocol node, and serves
// the groups whose ids hash onto it — protocol work for groups on
// different shards runs in parallel, and what the shards owe one peer
// still leaves as one datagram. One shard reproduces the classic single-loop behavior exactly; a group
// never migrates between shards for the life of the service. Values
// above MaxShards are rejected.
func WithShards(n int) Option {
	return func(c *serviceConfig) error {
		if n < 1 {
			return errors.New("stableleader: shard count must be at least 1")
		}
		if n > MaxShards {
			return fmt.Errorf("stableleader: shard count %d exceeds MaxShards (%d)", n, MaxShards)
		}
		c.shards = n
		return nil
	}
}

// WithClientPlane turns on the remote client plane: the service answers
// SUBSCRIBE/LEASE_RENEW/UNSUBSCRIBE messages from non-member processes
// (see the client package) and keeps them informed of leadership through
// lease-bounded LEADER_SNAPSHOT messages — fan-out on leader changes plus
// an answer to any renewal that finds the client's view lease/6 old,
// coalesced per client. Graceful departures (Group.Leave, Close) send
// final tombstone snapshots so subscribed clients fail over immediately.
func WithClientPlane() Option {
	return func(c *serviceConfig) error {
		c.clientPlane = true
		return nil
	}
}

// joinConfig is the validated result of applying JoinOptions; defaults
// live in defaultJoinConfig.
type joinConfig struct {
	candidate           bool
	algorithm           Algorithm
	spec                qos.Spec
	seeds               []id.Process
	helloInterval       time.Duration
	reconfigureInterval time.Duration
}

// defaultJoinConfig is the paper's setting: a passive observer running
// OmegaL under qos.Default, gossiping every second.
func defaultJoinConfig() joinConfig {
	return joinConfig{
		algorithm:           OmegaL,
		spec:                qos.Default(),
		helloInterval:       time.Second,
		reconfigureInterval: time.Second,
	}
}

// JoinOption configures membership in one group (see Service.Join).
type JoinOption func(*joinConfig) error

// AsCandidate marks this process as willing to lead the group. Elections
// choose only among candidates; without this option the process observes
// leadership passively.
func AsCandidate() JoinOption {
	return func(c *joinConfig) error {
		c.candidate = true
		return nil
	}
}

// WithAlgorithm selects the election core (default OmegaL).
func WithAlgorithm(a Algorithm) JoinOption {
	return func(c *joinConfig) error {
		switch a {
		case OmegaL, OmegaLC, OmegaID:
			c.algorithm = a
			return nil
		default:
			return fmt.Errorf("stableleader: invalid algorithm %d", a)
		}
	}
}

// WithQoS sets the failure detection requirement inside the group. The
// default is qos.Default(), the paper's setting.
func WithQoS(spec qos.Spec) JoinOption {
	return func(c *joinConfig) error {
		if err := spec.Validate(); err != nil {
			return err
		}
		c.spec = spec
		return nil
	}
}

// WithSeeds names processes contacted with the initial JOIN announcement;
// membership then spreads by gossip, so seeds need not be exhaustive.
// Repeated use accumulates.
func WithSeeds(seeds ...id.Process) JoinOption {
	return func(c *joinConfig) error {
		c.seeds = append(c.seeds, seeds...)
		return nil
	}
}

// WithHelloInterval sets the membership gossip period (default 1s).
func WithHelloInterval(d time.Duration) JoinOption {
	return func(c *joinConfig) error {
		if d <= 0 {
			return errors.New("stableleader: hello interval must be positive")
		}
		c.helloInterval = d
		return nil
	}
}

// WithReconfigureInterval sets how often the QoS configurator re-derives
// failure detection parameters from fresh link estimates (default 1s).
// Shorter intervals adapt faster to changing links at slightly higher CPU
// cost; they also raise the rate of QoSReconfigured events.
func WithReconfigureInterval(d time.Duration) JoinOption {
	return func(c *joinConfig) error {
		if d <= 0 {
			return errors.New("stableleader: reconfigure interval must be positive")
		}
		c.reconfigureInterval = d
		return nil
	}
}

// queryConfig is the result of applying QueryOptions.
type queryConfig struct {
	sync bool
}

// QueryOption configures one Leader or Status query.
type QueryOption func(*queryConfig)

// WithSyncRead serialises the query through the service event loop
// instead of answering from the wait-free snapshot. The result then
// reflects every event the loop has processed when the query runs —
// read-your-event-loop semantics, which tests that interleave commands
// and queries rely on. It costs a channel round-trip per call; the
// default snapshot read costs a single atomic load.
func WithSyncRead() QueryOption {
	return func(c *queryConfig) { c.sync = true }
}

// wantSyncRead applies query options. The len guard keeps the zero-option
// hot path allocation free: &c passed to an opaque func forces c to the
// heap, so it must only happen on the (cold) optioned path.
func wantSyncRead(opts []QueryOption) bool {
	if len(opts) == 0 {
		return false
	}
	var c queryConfig
	for _, o := range opts {
		o(&c)
	}
	return c.sync
}

// watchConfig is the result of applying WatchOptions.
type watchConfig struct {
	buffer  int
	mask    uint64
	initial bool
}

// defaultWatchBuffer sizes a Watch stream's buffer when WithWatchBuffer is
// not given.
const defaultWatchBuffer = 16

// WatchOption configures one Watch subscription (see Group.Watch).
type WatchOption func(*watchConfig)

// WithWatchBuffer sizes this subscriber's event buffer (default 16;
// sizes below 1 are ignored and the default applies). When the buffer is
// full the oldest undelivered event is dropped, never the newest.
func WithWatchBuffer(n int) WatchOption {
	return func(c *watchConfig) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// WithEventFilter restricts the stream to the given kinds. Repeated use
// accumulates; without it every kind is delivered. Unknown kinds match
// nothing (they never silently widen the filter).
func WithEventFilter(kinds ...EventKind) WatchOption {
	return func(c *watchConfig) {
		// Bit 0 (no kind uses it: kinds start at 1) marks "a filter was
		// given", so a filter of only unknown kinds matches nothing
		// rather than degrading to the match-all zero mask.
		c.mask |= 1
		for _, k := range kinds {
			if k >= KindLeaderChanged && k <= KindStandbyChanged {
				c.mask |= 1 << uint(k)
			}
		}
	}
}

// WithInitialState delivers the group's current leader view as a synthetic
// LeaderChanged event immediately on subscription (if one has been
// observed), so a late subscriber need not wait for the next change to
// learn the standing leader.
func WithInitialState() WatchOption {
	return func(c *watchConfig) { c.initial = true }
}
