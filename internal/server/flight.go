package server

// Singleflight dedup: N concurrent identical solves (same canonical
// formula hash and policy variant — the same key the result cache uses)
// consume one worker. The first keyed job to arrive is registered as the
// flight leader and admitted normally; every identical job that arrives
// while the leader is in flight attaches to it as a follower and never
// touches the queue. When the leader completes, its outcome fans out to
// all followers byte-for-byte (shared responses carry `X-Dedup: shared`),
// and the flight is deregistered before the fan-out so a later identical
// submit starts fresh (and usually hits the result cache the leader just
// filled). Sync and async jobs share one flight table, so a sync solve can
// ride an async job's solve and vice versa; traced jobs have no key and
// never share. Keyed sync solves run under the server's lifetime rather
// than the request's, so one departing client cannot cancel a solve other
// waiters share.

// flightTable indexes in-flight keyed jobs by their dedup key. The mutex
// also guards every job's followers slice — attach and fan-out serialize
// on it, so a follower is either seen by the leader's completion or
// attached to a fresh flight, never lost.
type flightTable struct {
	m map[string]*job
}

// joinFlight attaches j to an existing flight for its key, returning the
// leader, or registers j as the new leader and returns nil. Callers must
// only admit j to the queue when nil is returned.
func (s *Server) joinFlight(j *job) *job {
	s.flMu.Lock()
	defer s.flMu.Unlock()
	if l, ok := s.fl.m[j.key]; ok {
		j.shared = true
		l.followers = append(l.followers, j)
		return l
	}
	s.fl.m[j.key] = j
	return nil
}

// leaveFlight deregisters a leader and detaches its followers (snapshot
// taken under the table lock — later arrivals start a new flight).
func (s *Server) leaveFlight(j *job) []*job {
	if j.key == "" {
		return nil
	}
	s.flMu.Lock()
	defer s.flMu.Unlock()
	if s.fl.m[j.key] == j {
		delete(s.fl.m, j.key)
	}
	followers := j.followers
	j.followers = nil
	return followers
}

// abortFlight fails a registered leader's followers (the leader itself is
// answered by its handler): the admission path shed the leader, so every
// follower that raced in shares the shed outcome.
func (s *Server) abortFlight(j *job, code int, msg string) {
	for _, fw := range s.leaveFlight(j) {
		fw.fail(code, msg)
		s.endJob(fw)
	}
}
