package authz

// Durable authorization databases: each AddRule is one WAL record
// appended before the rule becomes visible, with periodic snapshots
// bounding replay. Rules change at administrative rates, so records are
// JSON.

import (
	"encoding/json"
	"fmt"

	"proxykit/internal/principal"
	"proxykit/internal/restrict"
)

// snapRule is the serialized form of one Rule.
type snapRule struct {
	EndServer    string   `json:"endServer"`
	Object       string   `json:"object,omitempty"`
	Principals   []string `json:"principals,omitempty"`
	Groups       []string `json:"groups,omitempty"`
	Ops          []string `json:"ops,omitempty"`
	Restrictions []byte   `json:"restrictions,omitempty"` // restrict.Set wire bytes
}

type snapState struct {
	Rules []snapRule `json:"rules"`
}

func encodeRule(r Rule) snapRule {
	sr := snapRule{
		EndServer: r.EndServer.String(),
		Object:    r.Object,
		Ops:       r.Ops,
	}
	for _, p := range r.Subject.Principals {
		sr.Principals = append(sr.Principals, p.String())
	}
	for _, g := range r.Subject.Groups {
		sr.Groups = append(sr.Groups, g.String())
	}
	if len(r.Restrictions) > 0 {
		sr.Restrictions = r.Restrictions.Marshal()
	}
	return sr
}

func decodeRule(sr snapRule) (Rule, error) {
	end, err := principal.Parse(sr.EndServer)
	if err != nil {
		return Rule{}, fmt.Errorf("restore end-server %q: %w", sr.EndServer, err)
	}
	r := Rule{EndServer: end, Object: sr.Object, Ops: sr.Ops}
	for _, ps := range sr.Principals {
		p, err := principal.Parse(ps)
		if err != nil {
			return Rule{}, fmt.Errorf("restore principal %q: %w", ps, err)
		}
		r.Subject.Principals = append(r.Subject.Principals, p)
	}
	for _, gs := range sr.Groups {
		g, err := principal.ParseGlobal(gs)
		if err != nil {
			return Rule{}, fmt.Errorf("restore group %q: %w", gs, err)
		}
		r.Subject.Groups = append(r.Subject.Groups, g)
	}
	if len(sr.Restrictions) > 0 {
		rs, err := restrict.Unmarshal(sr.Restrictions)
		if err != nil {
			return Rule{}, fmt.Errorf("restore restrictions: %w", err)
		}
		r.Restrictions = rs
	}
	return r, nil
}

// commitLocked commits the rule record through the host's log and
// applies it; callers hold the write lock. A refused or failed append
// skips the mutation (the ledger fails closed).
func (s *Server) commitLocked(r Rule) error {
	raw, err := json.Marshal(encodeRule(r))
	if err != nil {
		return err
	}
	if err := s.log.Commit(raw); err != nil {
		return err
	}
	s.rules = append(s.rules, r)
	return nil
}

// machine is the rule database as its durable.Host drives it; s.mu is
// its one lock.
type machine struct{ *Server }

// Apply decodes one WAL record and, under the write lock, runs log and
// then appends the rule.
func (m machine) Apply(record []byte, log func() error) error {
	var sr snapRule
	if err := json.Unmarshal(record, &sr); err != nil {
		return err
	}
	r, err := decodeRule(sr)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := log(); err != nil {
		return err
	}
	m.rules = append(m.rules, r)
	return nil
}

// Capture serializes the full rule database, running mark under the
// lock.
func (m machine) Capture(mark func()) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mark()
	st := snapState{}
	for _, r := range m.rules {
		st.Rules = append(st.Rules, encodeRule(r))
	}
	return json.Marshal(st)
}

// Restore decodes a snapshot document into a fresh rule list, then
// under the write lock runs install and swaps it in.
func (m machine) Restore(raw []byte, install func() error) error {
	var st snapState
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	rules := make([]Rule, 0, len(st.Rules))
	for _, sr := range st.Rules {
		r, err := decodeRule(sr)
		if err != nil {
			return err
		}
		rules = append(rules, r)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := install(); err != nil {
		return err
	}
	m.rules = rules
	return nil
}
