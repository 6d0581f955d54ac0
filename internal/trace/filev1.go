package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"catsim/internal/dram"
)

// Versioned binary trace container ("v1"): the capture/replay format that
// lets any generated workload — closed-loop per-core streams and open-loop
// arrival streams alike — be written to disk once and replayed
// byte-identically into any scheme configuration. Layout:
//
//	magic   "catsimtr"                            (8 bytes)
//	version uint16 little-endian                  (currently 1)
//	geometry: 6 uvarints (channels, ranks/ch, banks/rk, rows/bank,
//	          colBytes, lineBytes)
//	uvarint stream count, then per stream:
//	    uvarint name length, name bytes
//	    1 byte kind (0 closed-loop, 1 open-loop)
//	    uvarint request count, then per request:
//	        uvarint zigzag(addr delta)<<1 | write bit
//	        closed: uvarint gap cycles
//	        open:   uvarint arrival-time delta (CPU cycles)
//	checksum uint64 little-endian FNV-1a over everything before it
//
// Addresses are delta-encoded against the previous request of the same
// stream and open-loop arrival times against the previous arrival, so the
// uvarints stay short under locality. The checksum turns truncation and
// bit rot into loud errors; an unknown version fails closed so a future
// v2 is never silently misparsed.

// ContainerVersion is the trace format version this build reads and
// writes.
const ContainerVersion = 1

var containerMagic = [8]byte{'c', 'a', 't', 's', 'i', 'm', 't', 'r'}

// maxContainerStreams and the per-stream record bound below cap what a
// hostile header can make the reader allocate before the payload backs it
// up (each record is at least two bytes on the wire).
const maxContainerStreams = 1 << 16

// Stream is one captured request stream: a closed-loop per-core stream
// (requests timed by Gap) or an open-loop arrival stream (requests timed
// by absolute Arrivals, non-decreasing, in CPU cycles).
type Stream struct {
	Name string
	Open bool
	Reqs []Request
	// Arrivals holds one absolute arrival time per request (open streams
	// only; nil for closed streams).
	Arrivals []int64
}

func (s *Stream) validate(i int) error {
	if s.Open {
		if len(s.Arrivals) != len(s.Reqs) {
			return fmt.Errorf("trace: stream %d (%s): %d arrivals for %d requests",
				i, s.Name, len(s.Arrivals), len(s.Reqs))
		}
		prev := int64(0)
		for j, at := range s.Arrivals {
			if at < prev {
				return fmt.Errorf("trace: stream %d (%s): arrival %d regresses (%d after %d)",
					i, s.Name, j, at, prev)
			}
			prev = at
		}
	} else if s.Arrivals != nil {
		return fmt.Errorf("trace: stream %d (%s): closed stream carries arrivals", i, s.Name)
	}
	if len(s.Reqs) == 0 {
		return fmt.Errorf("trace: stream %d (%s): empty stream", i, s.Name)
	}
	for j, r := range s.Reqs {
		if r.Addr < 0 || r.Gap < 0 {
			return fmt.Errorf("trace: stream %d (%s): request %d has a negative field", i, s.Name, j)
		}
	}
	return nil
}

// Generator adapts a closed stream to the Generator interface, replaying
// it in a loop through FileTrace.
func (s *Stream) Generator() (*FileTrace, error) {
	if s.Open {
		return nil, fmt.Errorf("trace: stream %q is open-loop; use OpenReplay", s.Name)
	}
	return NewFileTrace(s.Name, s.Reqs)
}

// OpenReplay replays an open stream's requests at their recorded arrival
// times. Unlike the looping FileTrace it is single-shot: the engine draws
// exactly len(Reqs) requests (its open-slot budget), so overdrawing is a
// caller bug and panics loudly.
type OpenReplay struct {
	name string
	reqs []Request
	at   []int64
	pos  int
}

// OpenReplay builds the single-shot arrival replayer for an open stream.
func (s *Stream) OpenReplay() (*OpenReplay, error) {
	if !s.Open {
		return nil, fmt.Errorf("trace: stream %q is closed-loop; use Generator", s.Name)
	}
	return &OpenReplay{name: s.Name, reqs: s.Reqs, at: s.Arrivals}, nil
}

// Name implements the engine's open-source interface.
func (o *OpenReplay) Name() string { return o.name }

// Next implements the engine's open-source interface.
func (o *OpenReplay) Next() (Request, int64) {
	if o.pos >= len(o.reqs) {
		panic(fmt.Sprintf("trace: open replay %q overdrawn past %d requests", o.name, len(o.reqs)))
	}
	r, at := o.reqs[o.pos], o.at[o.pos]
	o.pos++
	return r, at
}

// Remaining reports how many requests are left to replay.
func (o *OpenReplay) Remaining() int { return len(o.reqs) - o.pos }

// Container is a parsed (or to-be-written) v1 trace file.
type Container struct {
	Geometry dram.Geometry
	Streams  []Stream
}

func (c *Container) validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return fmt.Errorf("trace: container geometry: %w", err)
	}
	if len(c.Streams) == 0 {
		return fmt.Errorf("trace: container has no streams")
	}
	if len(c.Streams) > maxContainerStreams {
		return fmt.Errorf("trace: container has %d streams (max %d)", len(c.Streams), maxContainerStreams)
	}
	for i := range c.Streams {
		if err := c.Streams[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encode writes the payload (everything but the trailing checksum) to w.
func (c *Container) encode(w io.Writer) error {
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := w.Write(buf[:n])
		return err
	}
	if _, err := w.Write(containerMagic[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(buf[:2], ContainerVersion)
	if _, err := w.Write(buf[:2]); err != nil {
		return err
	}
	g := c.Geometry
	for _, v := range []int{g.Channels, g.RanksPerCh, g.BanksPerRk, g.RowsPerBank, g.ColBytes, g.LineBytes} {
		if err := putUvarint(uint64(v)); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(len(c.Streams))); err != nil {
		return err
	}
	for i := range c.Streams {
		s := &c.Streams[i]
		if err := putUvarint(uint64(len(s.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s.Name); err != nil {
			return err
		}
		kind := byte(0)
		if s.Open {
			kind = 1
		}
		if _, err := w.Write([]byte{kind}); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(s.Reqs))); err != nil {
			return err
		}
		prevAddr, prevAt := int64(0), int64(0)
		for j, r := range s.Reqs {
			head := zigzag(r.Addr-prevAddr) << 1
			if r.Write {
				head |= 1
			}
			prevAddr = r.Addr
			if err := putUvarint(head); err != nil {
				return err
			}
			var second uint64
			if s.Open {
				at := s.Arrivals[j]
				second = uint64(at - prevAt)
				prevAt = at
			} else {
				second = uint64(r.Gap)
			}
			if err := putUvarint(second); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteContainer validates and writes c in the v1 format, checksum
// included.
func WriteContainer(w io.Writer, c *Container) error {
	if err := c.validate(); err != nil {
		return err
	}
	h := fnv.New64a()
	if err := c.encode(io.MultiWriter(w, h)); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	_, err := w.Write(sum[:])
	return err
}

// Digest returns the FNV-1a checksum of the container's encoded payload —
// a content hash stable across processes, which sim.CacheKey uses to key
// replayed runs.
func (c *Container) Digest() uint64 {
	h := fnv.New64a()
	// Hashing cannot fail; encode only returns the writer's errors.
	if err := c.encode(h); err != nil {
		panic("trace: digest encode failed: " + err.Error())
	}
	return h.Sum64()
}

// containerReader decodes the payload from an in-memory buffer, tracking
// the cursor so truncation errors can say where the data ran out.
type containerReader struct {
	data []byte
	pos  int
}

func (cr *containerReader) remaining() int { return len(cr.data) - cr.pos }

func (cr *containerReader) bytes(n int, what string) ([]byte, error) {
	if cr.remaining() < n {
		return nil, fmt.Errorf("trace: truncated container: %s needs %d bytes, %d left at offset %d",
			what, n, cr.remaining(), cr.pos)
	}
	b := cr.data[cr.pos : cr.pos+n]
	cr.pos += n
	return b, nil
}

func (cr *containerReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(cr.data[cr.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated container: bad %s varint at offset %d", what, cr.pos)
	}
	cr.pos += n
	return v, nil
}

// ReadContainer parses a v1 trace file, verifying magic, version and
// checksum. Corruption — a bad magic, a future version, truncation
// anywhere, a flipped bit — is a loud error, never a silent partial
// parse.
func ReadContainer(r io.Reader) (*Container, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading container: %w", err)
	}
	if len(data) < len(containerMagic)+2+8 {
		return nil, fmt.Errorf("trace: truncated container: %d bytes is shorter than any valid trace", len(data))
	}
	payload, sum := data[:len(data)-8], data[len(data)-8:]
	cr := &containerReader{data: payload}
	magic, err := cr.bytes(8, "magic")
	if err != nil {
		return nil, err
	}
	if [8]byte(magic) != containerMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a catsim trace container)", magic)
	}
	verBytes, err := cr.bytes(2, "version")
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint16(verBytes); v != ContainerVersion {
		return nil, fmt.Errorf("trace: unsupported container version %d (this build reads v%d)",
			v, ContainerVersion)
	}
	h := fnv.New64a()
	h.Write(payload)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(sum); got != want {
		return nil, fmt.Errorf("trace: container checksum mismatch (file %016x, computed %016x): truncated or corrupt", want, got)
	}

	c := &Container{}
	geomFields := []*int{
		&c.Geometry.Channels, &c.Geometry.RanksPerCh, &c.Geometry.BanksPerRk,
		&c.Geometry.RowsPerBank, &c.Geometry.ColBytes, &c.Geometry.LineBytes,
	}
	for _, f := range geomFields {
		v, err := cr.uvarint("geometry")
		if err != nil {
			return nil, err
		}
		*f = int(v)
	}
	nstreams, err := cr.uvarint("stream count")
	if err != nil {
		return nil, err
	}
	if nstreams == 0 || nstreams > maxContainerStreams {
		return nil, fmt.Errorf("trace: container declares %d streams (want 1..%d)", nstreams, maxContainerStreams)
	}
	for i := 0; i < int(nstreams); i++ {
		var s Stream
		nameLen, err := cr.uvarint("stream name length")
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(cr.remaining()) {
			return nil, fmt.Errorf("trace: truncated container: stream %d name of %d bytes exceeds remaining payload", i, nameLen)
		}
		name, err := cr.bytes(int(nameLen), "stream name")
		if err != nil {
			return nil, err
		}
		s.Name = string(name)
		kind, err := cr.bytes(1, "stream kind")
		if err != nil {
			return nil, err
		}
		switch kind[0] {
		case 0:
		case 1:
			s.Open = true
		default:
			return nil, fmt.Errorf("trace: stream %d (%s): unknown kind %d", i, s.Name, kind[0])
		}
		count, err := cr.uvarint("request count")
		if err != nil {
			return nil, err
		}
		// Every record is at least two bytes on the wire, so a count the
		// remaining payload cannot back up is corruption — reject before
		// allocating.
		if count == 0 || count > uint64(cr.remaining())/2+1 {
			return nil, fmt.Errorf("trace: stream %d (%s): request count %d exceeds remaining payload",
				i, s.Name, count)
		}
		s.Reqs = make([]Request, count)
		if s.Open {
			s.Arrivals = make([]int64, count)
		}
		prevAddr, prevAt := int64(0), int64(0)
		for j := range s.Reqs {
			head, err := cr.uvarint("request header")
			if err != nil {
				return nil, err
			}
			addr := prevAddr + unzigzag(head>>1)
			if addr < 0 {
				return nil, fmt.Errorf("trace: stream %d (%s): request %d decodes to negative address", i, s.Name, j)
			}
			prevAddr = addr
			s.Reqs[j] = Request{Addr: addr, Write: head&1 == 1}
			second, err := cr.uvarint("request timing")
			if err != nil {
				return nil, err
			}
			if s.Open {
				at := prevAt + int64(second)
				if at < prevAt {
					return nil, fmt.Errorf("trace: stream %d (%s): arrival %d overflows", i, s.Name, j)
				}
				s.Arrivals[j] = at
				prevAt = at
			} else {
				if second > 1<<31 {
					return nil, fmt.Errorf("trace: stream %d (%s): request %d gap %d out of range", i, s.Name, j, second)
				}
				s.Reqs[j].Gap = int(second)
			}
		}
		c.Streams = append(c.Streams, s)
	}
	if cr.remaining() != 0 {
		return nil, fmt.Errorf("trace: container has %d trailing bytes after the last stream", cr.remaining())
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}
