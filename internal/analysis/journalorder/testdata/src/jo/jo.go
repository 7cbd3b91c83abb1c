// Package jo exercises journalorder: mutations with and without a
// preceding journal append, the replay exemption, read-only calls, and an
// op interface whose apply is a configured mutator.
package jo

import "jo/store"

type Server struct{ db *store.DB }

func (s *Server) journal(op string) error { return nil }

func (s *Server) good(k, v string) {
	if err := s.journal("put"); err != nil {
		return
	}
	s.db.Put(k, v)
}

func (s *Server) bad(k, v string) {
	s.db.Put(k, v) // want "durable mutation jo/store.DB.Put is not preceded by a journal append"
}

func (s *Server) badOrder(k, v string) {
	s.db.Put(k, v) // want "durable mutation jo/store.DB.Put is not preceded by a journal append"
	_ = s.journal("put")
}

// replay applies records that are already durable.
//
//sit:replay
func (s *Server) replay(k, v string) {
	s.db.Put(k, v)
}

func (s *Server) read(k string) string {
	return s.db.Get(k)
}

// op is a journaled operation; its apply is configured as a mutator, which
// also covers every concrete op's apply.
type op interface{ apply(db *store.DB) }

type putOp struct{ k, v string }

// apply only ever sees a journaled record.
//
//sit:replay
func (o *putOp) apply(db *store.DB) { db.Put(o.k, o.v) }

func (s *Server) commit(o op) {
	if err := s.journal("op"); err != nil {
		return
	}
	o.apply(s.db)
}

func (s *Server) applyUnjournaled(o op) {
	o.apply(s.db) // want "durable mutation jo.op.apply is not preceded by a journal append"
}

func (s *Server) applyConcrete(k, v string) {
	(&putOp{k: k, v: v}).apply(s.db) // want "durable mutation jo.putOp.apply is not preceded by a journal append"
}
