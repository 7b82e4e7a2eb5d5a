package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/onesided"
	"repro/internal/serve"
	"repro/popmatch"
)

// checker is the correctness gate. Cheap checks (status, ids, epochs) run
// right after each reply, off the request's clock. Solve replies are
// interned: each distinct reply body of an (instance, mode) pair is kept
// once, and every reply must equal a kept body byte for byte; finish then
// decodes every kept body and compares it with a direct library solve. Delta
// session replies are reduced to a digest and replayed at the end on a
// client copy of the instance. Any mismatch is a failed operation.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
	variants  map[variantKey][]*variant
	sessions  []*sessionLog
}

type variantKey struct {
	in   *input
	mode serve.Mode
}

type variant struct {
	body  []byte
	count int64
}

// sessionLog is the ordered history of one session lane: the mutations it
// sent and the solve replies it received.
type sessionLog struct {
	source *input
	events []sessionEvent
}

type sessionEvent struct {
	mut    *serve.Mutation // nil for a solve
	epoch  uint64
	exists bool
	size   int
	digest [32]byte
}

func newChecker() *checker {
	return &checker{variants: make(map[variantKey][]*variant)}
}

func (c *checker) addSession(l *sessionLog) {
	c.mu.Lock()
	c.sessions = append(c.sessions, l)
	c.mu.Unlock()
}

func (c *checker) failf(n int64, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed += n
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check judges one reply; it reports whether the op succeeded.
func (c *checker) check(o *op, status int, body []byte, err error) bool {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
	if err != nil {
		c.failf(1, "%s: %v", o.kind, err)
		return false
	}
	if status/100 != 2 {
		c.failf(1, "%s: status %d: %s", o.kind, status, bytes.TrimSpace(body[:min(len(body), 200)]))
		return false
	}
	switch o.kind {
	case kUpload:
		var info struct{ ID string }
		if err := json.Unmarshal(body, &info); err != nil || info.ID != o.in.id {
			c.failf(1, "upload: id %q, want %q (%v)", info.ID, o.in.id, err)
			return false
		}
	case kSolve:
		c.intern(variantKey{o.in, o.mode}, body)
	case kMutate:
		var r struct{ Session serve.SessionInfo }
		if err := json.Unmarshal(body, &r); err != nil || r.Session.Epoch != o.lane.epoch+1 {
			c.failf(1, "mutate: epoch %d after %d (%v)", r.Session.Epoch, o.lane.epoch, err)
			return false
		}
		o.lane.epoch = r.Session.Epoch
		o.lane.log.events = append(o.lane.log.events, sessionEvent{mut: &o.lane.muts[o.mut], epoch: r.Session.Epoch})
	case kSessionSolve:
		var r struct {
			Epoch  uint64
			Exists bool
			Size   int
			PostOf []int32 `json:"post_of"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.Epoch != o.lane.epoch {
			c.failf(1, "session solve: epoch %d, want %d (%v)", r.Epoch, o.lane.epoch, err)
			return false
		}
		o.lane.log.events = append(o.lane.log.events, sessionEvent{epoch: r.Epoch, exists: r.Exists, size: r.Size, digest: digest(r.PostOf)})
	}
	return true
}

func (c *checker) intern(k variantKey, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range c.variants[k] {
		if bytes.Equal(v.body, body) {
			v.count++
			return
		}
	}
	c.variants[k] = append(c.variants[k], &variant{body: append([]byte(nil), body...), count: 1})
}

func digest(postOf []int32) [32]byte {
	buf := make([]byte, 0, 4*len(postOf))
	for _, p := range postOf {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	}
	return sha256.Sum256(buf)
}

// finish runs the deferred checks: every kept solve reply against a direct
// solve of the client's copy of the instance, and every session history
// replayed on a fresh clone, each solve against a fresh SolveRequest.
func (c *checker) finish() {
	solver := popmatch.NewSolver(popmatch.Options{})
	defer solver.Close()
	ctx := context.Background()
	for k, vs := range c.variants {
		ref, err := solver.SolveRequest(ctx, k.in.ins, popmatch.Request{Mode: k.mode})
		if err != nil {
			c.failf(sumCounts(vs), "reference %s solve: %v", k.mode, err)
			continue
		}
		for _, v := range vs {
			if err := checkSolveBody(k, v.body, ref); err != nil {
				c.failf(v.count, "%s reply: %v", k.mode, err)
			}
		}
	}
	for _, l := range c.sessions {
		clone := l.source.ins.Clone()
		for _, ev := range l.events {
			if ev.mut != nil {
				if err := clone.SetPreferences(ev.mut.Applicant, ev.mut.Posts, nil); err != nil {
					c.failf(1, "replaying mutation: %v", err)
				}
				continue
			}
			ref, err := solver.SolveRequest(ctx, clone, popmatch.Request{Mode: popmatch.ModePopular})
			switch {
			case err != nil:
				c.failf(1, "reference session solve: %v", err)
			case clone.Epoch() != ev.epoch:
				c.failf(1, "session solve at epoch %d, replay is at %d", ev.epoch, clone.Epoch())
			case ref.Exists != ev.exists || ref.Size != ev.size || (ref.Exists && digest(ref.Matching.PostOf) != ev.digest):
				c.failf(1, "session solve at epoch %d differs from a fresh solve", ev.epoch)
			}
		}
	}
}

func sumCounts(vs []*variant) int64 {
	var n int64
	for _, v := range vs {
		n += v.count
	}
	return n
}

// checkSolveBody compares one solve reply with the reference result: same
// instance, mode, existence, size and post_of vector; popular and maxcard
// matchings must also pass the Theorem 1 verifier.
func checkSolveBody(k variantKey, body []byte, ref popmatch.Result) error {
	var r struct {
		Instance string
		Mode     string
		Exists   bool
		Size     int
		PostOf   []int32 `json:"post_of"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Instance != k.in.id || r.Mode != k.mode.String() {
		return fmt.Errorf("reply names %s/%s", r.Instance, r.Mode)
	}
	if r.Exists != ref.Exists || r.Size != ref.Size {
		return fmt.Errorf("exists=%v size=%d, direct solve exists=%v size=%d", r.Exists, r.Size, ref.Exists, ref.Size)
	}
	if !ref.Exists {
		return nil
	}
	if !slices.Equal(r.PostOf, ref.Matching.PostOf) {
		return fmt.Errorf("post_of differs from the direct solve")
	}
	if k.mode == serve.ModePopular || k.mode == serve.ModeMaxCard {
		if err := popmatch.Verify(k.in.ins, matchingOf(k.in.ins, r.PostOf), popmatch.Options{}); err != nil {
			return fmt.Errorf("Theorem 1 verifier: %v", err)
		}
	}
	return nil
}

func matchingOf(ins *onesided.Instance, postOf []int32) *onesided.Matching {
	m := onesided.NewMatching(ins)
	for a, p := range postOf {
		if p >= 0 {
			m.Match(int32(a), p)
		}
	}
	return m
}
