package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spq"
)

// Request phases.
const (
	phaseWarmup = iota
	phaseWindow
)

// request is one client round trip over the binary protocol.
type request struct {
	id     int // issue order across all connections
	query  int // index into the workload's distinct queries
	phase  int
	traced bool
	// start and end are offsets from the run's epoch.
	start, end time.Duration
	// results and gen are the response; code is its error code ("" = ok).
	results []spq.Result
	gen     uint64
	code    string
}

func (r *request) ok() bool { return r.code == "" }

func (r *request) latency() time.Duration { return r.end - r.start }

// client is one binary-protocol connection: 4-byte big-endian length
// prefix, then the JSON QueryRequest or QueryResponse.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
}

func dial(addr string) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: c, r: bufio.NewReader(c)}, nil
}

func (c *client) roundTrip(req *spq.QueryRequest) (*spq.QueryResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	c.buf = binary.BigEndian.AppendUint32(c.buf[:0], uint32(len(payload)))
	c.buf = append(c.buf, payload...)
	if _, err := c.conn.Write(c.buf); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(c.r, body); err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	var resp spq.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &resp, nil
}

// loader drives closed-loop clients: each connection sends its next query
// only after the previous response arrives. All connections share one
// position in the seeded query stream.
type loader struct {
	clients []*client
	pool    []spq.Query
	stream  []int
	epoch   time.Time
	next    atomic.Int64

	mu   sync.Mutex
	reqs []request
}

func newLoader(addr string, conns int, pool []spq.Query, stream []int, epoch time.Time) (*loader, error) {
	l := &loader{pool: pool, stream: stream, epoch: epoch}
	for i := 0; i < conns; i++ {
		c, err := dial(addr)
		if err != nil {
			l.close()
			return nil, err
		}
		l.clients = append(l.clients, c)
	}
	return l, nil
}

func (l *loader) close() {
	for _, c := range l.clients {
		c.conn.Close()
	}
}

// run sends queries on every connection until d has passed, then waits
// for the last responses. It returns the phase's start offset and the
// offset of its last response.
func (l *loader) run(d time.Duration, phase int, traced bool) (start, end time.Duration, err error) {
	start = time.Since(l.epoch)
	deadline := start + d
	var wg sync.WaitGroup
	errs := make([]error, len(l.clients))
	ends := make([]time.Duration, len(l.clients))
	for i, c := range l.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			var mine []request
			for time.Since(l.epoch) < deadline {
				id := int(l.next.Add(1) - 1)
				q := l.stream[id%len(l.stream)]
				no := false
				req := &spq.QueryRequest{Query: l.pool[q], Algorithm: "espqsco", AutoPlan: true, Cache: &no}
				r := request{id: id, query: q, phase: phase, traced: traced, start: time.Since(l.epoch)}
				resp, err := c.roundTrip(req)
				r.end = time.Since(l.epoch)
				if err != nil {
					errs[i] = err
					break
				}
				r.results, r.gen, r.code = resp.Results, resp.Generation, resp.Code
				mine = append(mine, r)
				ends[i] = r.end
			}
			l.mu.Lock()
			l.reqs = append(l.reqs, mine...)
			l.mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	end = start
	for i := range ends {
		if errs[i] != nil {
			return start, end, errs[i]
		}
		end = max(end, ends[i])
	}
	return start, end, nil
}

// appendRec is one append batch.
type appendRec struct {
	// due is when the batch was scheduled, start when it was sent and end
	// when both of its calls returned (offsets from the epoch).
	due, start, end time.Duration
	// compacted is the duration of a call that triggered an automatic
	// compaction, 0 if neither did.
	compacted time.Duration
}

// commit records the storage generation after one append call and how
// many appended records (in batch order, data before features) it made
// visible.
type commit struct {
	gen     uint64
	records int
}

// appender writes batches into the engine in an open loop: batch i is due
// at start + i*interval whether or not earlier batches have finished, and
// a late batch is sent as soon as the one before it returns.
type appender struct {
	eng   *spq.Engine
	epoch time.Time
	// baseGen is the generation before the first append.
	baseGen uint64
	recs    []appendRec
	commits []commit
}

func (a *appender) run(batches []batch, start time.Duration, interval time.Duration) error {
	records := 0
	for i, b := range batches {
		due := start + time.Duration(i)*interval
		if wait := due - time.Since(a.epoch); wait > 0 {
			time.Sleep(wait)
		}
		rec := appendRec{due: due, start: time.Since(a.epoch)}
		for _, call := range []struct {
			n  int
			do func() error
		}{
			{len(b.data), func() error { return a.eng.AddData(b.data...) }},
			{len(b.feats), func() error { return a.eng.AddFeature(b.feats...) }},
		} {
			before := a.eng.DeltaLen()
			t0 := time.Now()
			if err := call.do(); err != nil {
				return fmt.Errorf("append batch %d: %w", i, err)
			}
			took := time.Since(t0)
			if a.eng.DeltaLen() < before+call.n {
				rec.compacted += took
			}
			records += call.n
			a.commits = append(a.commits, commit{gen: a.eng.Generation(), records: records})
		}
		rec.end = time.Since(a.epoch)
		a.recs = append(a.recs, rec)
	}
	return nil
}

// visible returns how many appended records a response served at
// generation gen saw.
func (a *appender) visible(gen uint64) (int, error) {
	if gen <= a.baseGen {
		return 0, nil
	}
	for _, c := range a.commits {
		if c.gen >= gen {
			return c.records, nil
		}
	}
	return 0, fmt.Errorf("response generation %d is newer than the last append", gen)
}
