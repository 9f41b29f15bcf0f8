package group

// Durable group databases: each membership mutation is one WAL record
// appended before the in-memory change becomes visible, and a periodic
// snapshot bounds replay. Mutations are JSON-encoded — the group
// database changes at administrative rates, not on any hot path.

import (
	"encoding/json"
	"fmt"
	"sort"

	"proxykit/internal/principal"
)

// groupOp is one WAL record.
type groupOp struct {
	Kind      string `json:"kind"` // add-group | add-member | add-nested | remove-member
	Group     string `json:"group"`
	Principal string `json:"principal,omitempty"`
	Nested    string `json:"nested,omitempty"`
}

const (
	gopAddGroup     = "add-group"
	gopAddMember    = "add-member"
	gopAddNested    = "add-nested"
	gopRemoveMember = "remove-member"
)

// commitLocked commits the op through the host's log and applies it;
// callers hold the write lock. A refused or failed append skips the
// mutation — the ledger fails closed, and a change that is not durable
// must not become visible.
func (s *Server) commitLocked(o *groupOp) error {
	raw, err := json.Marshal(o)
	if err != nil {
		return err
	}
	if err := s.log.Commit(raw); err != nil {
		return err
	}
	return s.applyLocked(o)
}

// applyLocked mutates in-memory state for one op — shared by the live
// mutators and recovery replay.
func (s *Server) applyLocked(o *groupOp) error {
	ensure := func() *members {
		g, ok := s.groups[o.Group]
		if !ok {
			g = &members{principals: principal.NewSet()}
			s.groups[o.Group] = g
		}
		return g
	}
	switch o.Kind {
	case gopAddGroup:
		ensure()
	case gopAddMember:
		p, err := principal.Parse(o.Principal)
		if err != nil {
			return fmt.Errorf("group: replay member %q: %w", o.Principal, err)
		}
		ensure().principals.Add(p)
	case gopAddNested:
		sub, err := principal.ParseGlobal(o.Nested)
		if err != nil {
			return fmt.Errorf("group: replay nested %q: %w", o.Nested, err)
		}
		g := ensure()
		g.nested = append(g.nested, sub)
	case gopRemoveMember:
		p, err := principal.Parse(o.Principal)
		if err != nil {
			return fmt.Errorf("group: replay member %q: %w", o.Principal, err)
		}
		if g, ok := s.groups[o.Group]; ok {
			delete(g.principals, p)
		}
	default:
		return fmt.Errorf("group: replay: unknown op %q", o.Kind)
	}
	return nil
}

// snapGroup / snapState are the snapshot schema, sorted throughout so
// identical databases marshal identically.
type snapGroup struct {
	Name       string   `json:"name"`
	Principals []string `json:"principals,omitempty"`
	Nested     []string `json:"nested,omitempty"`
}

type snapState struct {
	Groups []snapGroup `json:"groups"`
}

// machine is the group database as its durable.Host drives it; s.mu
// is its one lock.
type machine struct{ *Server }

// Apply decodes one WAL record and, under the write lock, runs log and
// then applyLocked.
func (m machine) Apply(record []byte, log func() error) error {
	var o groupOp
	if err := json.Unmarshal(record, &o); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := log(); err != nil {
		return err
	}
	return m.applyLocked(&o)
}

// Capture serializes the full database, running mark under the lock.
func (m machine) Capture(mark func()) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mark()
	st := snapState{}
	names := make([]string, 0, len(m.groups))
	for name := range m.groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := m.groups[name]
		sg := snapGroup{Name: name}
		for p := range g.principals {
			sg.Principals = append(sg.Principals, p.String())
		}
		sort.Strings(sg.Principals)
		for _, sub := range g.nested {
			sg.Nested = append(sg.Nested, sub.String())
		}
		st.Groups = append(st.Groups, sg)
	}
	return json.Marshal(st)
}

// Restore decodes a snapshot document into a fresh database, then under
// the write lock runs install and swaps it in.
func (m machine) Restore(raw []byte, install func() error) error {
	var st snapState
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	groups := make(map[string]*members, len(st.Groups))
	for _, sg := range st.Groups {
		g := &members{principals: principal.NewSet()}
		for _, ps := range sg.Principals {
			p, err := principal.Parse(ps)
			if err != nil {
				return fmt.Errorf("restore principal %q: %w", ps, err)
			}
			g.principals.Add(p)
		}
		for _, ns := range sg.Nested {
			sub, err := principal.ParseGlobal(ns)
			if err != nil {
				return fmt.Errorf("restore nested %q: %w", ns, err)
			}
			g.nested = append(g.nested, sub)
		}
		groups[sg.Name] = g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := install(); err != nil {
		return err
	}
	m.groups = groups
	return nil
}
