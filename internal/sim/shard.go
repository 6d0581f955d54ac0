package sim

import (
	"fmt"

	"catsim/internal/addrmap"
	"catsim/internal/mitigation"
	"catsim/internal/trace"
)

// This file decides when a Config can take the channel-partitioned path
// and pins generated streams to their channel. Context.Run builds one
// partition stack per channel with cores and folds them back into one
// Result; see engine/shard.go for the determinism contract the
// partitioning rests on.

// affineGen pins a generator's stream to one channel: every address is
// remapped with row, rank, bank and column preserved. The wrapper sits
// outermost in closedStream, so attack blends are pinned too and Capture
// records the pinned stream.
type affineGen struct {
	gen    trace.Generator
	policy addrmap.Policy
	ch     int
}

func (g *affineGen) Next() trace.Request {
	req := g.gen.Next()
	req.Addr = addrmap.PinChannel(g.policy, req.Addr, g.ch)
	return req
}

func (g *affineGen) Name() string { return fmt.Sprintf("%s@ch%d", g.gen.Name(), g.ch) }

// sharded reports whether Run takes the channel-partitioned path: an
// explicit Shards request over partitionable streams (closed-loop,
// channel-affine) and a shard-safe scheme. Open-loop runs and schemes
// with cross-bank or shared-PRNG state fall back to the sequential
// reference engine — same Config, same Result shape.
func (c *Config) sharded() bool {
	return c.Shards >= 1 && c.ChannelAffine && c.Replay == nil && c.OpenLoop == nil &&
		c.Cores >= 1 && mitigation.ShardSafe(c.Scheme.Kind)
}
