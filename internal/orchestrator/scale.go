package orchestrator

import (
	"errors"
	"fmt"
	"sort"
)

// Errors returned by the scale APIs.
var (
	ErrUnknownService = errors.New("orchestrator: unknown service")
	ErrMinReplicas    = errors.New("orchestrator: cannot scale below one replica")
)

// ScaleUp schedules one additional replica of a deployed microservice,
// committing the reservation and firing OnSchedule — the control loop's
// actuator for scale-out. The new replica gets the next free replica
// index so existing replica identities (and their routes) are untouched.
func (r *Root) ScaleUp(app, service string) (Instance, error) {
	r.mu.Lock()
	state, ok := r.deployed[app]
	if !ok {
		r.mu.Unlock()
		return Instance{}, fmt.Errorf("%w: %s", ErrUnknownApp, app)
	}
	var svc ServiceSLA
	found := false
	for _, ms := range state.sla.Microservices {
		if ms.Name == service {
			svc = ms
			found = true
			break
		}
	}
	if !found {
		r.mu.Unlock()
		return Instance{}, fmt.Errorf("%w: %s/%s", ErrUnknownService, app, service)
	}
	next := 0
	for _, inst := range state.instances {
		if inst.Service == service && inst.Replica >= next {
			next = inst.Replica + 1
		}
	}
	one := svc
	one.Replicas = 1
	nodes, err := place(one, r.candidatesLocked())
	if err != nil {
		r.mu.Unlock()
		return Instance{}, err
	}
	n := nodes[0]
	n.instances++
	n.reservedMem += svc.Requirements.MemBytes
	inst := Instance{
		App:     app,
		Service: service,
		Replica: next,
		Node:    n.info.Name,
		State:   StateRunning,
	}
	state.instances[inst.Key()] = &inst
	r.mu.Unlock()

	if r.hooks.OnSchedule != nil {
		r.hooks.OnSchedule(inst)
	}
	return inst, nil
}

// ScaleDown removes the highest-index running replica of a deployed
// microservice, releasing its reservation and firing OnRemove. It
// refuses to go below one running replica.
func (r *Root) ScaleDown(app, service string) (Instance, error) {
	r.mu.Lock()
	state, ok := r.deployed[app]
	if !ok {
		r.mu.Unlock()
		return Instance{}, fmt.Errorf("%w: %s", ErrUnknownApp, app)
	}
	var victim *Instance
	running := 0
	for _, inst := range state.instances {
		if inst.Service != service || inst.State != StateRunning {
			continue
		}
		running++
		if victim == nil || inst.Replica > victim.Replica {
			victim = inst
		}
	}
	if victim == nil {
		r.mu.Unlock()
		return Instance{}, fmt.Errorf("%w: %s/%s", ErrUnknownService, app, service)
	}
	if running <= 1 {
		r.mu.Unlock()
		return Instance{}, fmt.Errorf("%w: %s/%s", ErrMinReplicas, app, service)
	}
	removed := *victim
	delete(state.instances, victim.Key())
	if n, ok := r.nodes[victim.Node]; ok {
		n.instances--
		n.reservedMem -= r.memOfLocked(state.sla, service)
	}
	r.mu.Unlock()

	if r.hooks.OnRemove != nil {
		r.hooks.OnRemove(removed)
	}
	return removed, nil
}

// SetAdmissions replaces the admission verdicts carried on heartbeat
// responses. The control loop publishes its full verdict set each
// period; services absent from the set read as admitted on the nodes.
func (r *Root) SetAdmissions(adm []ServiceAdmission) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(adm) == 0 {
		r.admissions = nil
		return
	}
	m := make(map[string]ServiceAdmission, len(adm))
	for _, a := range adm {
		m[a.Service] = a
	}
	r.admissions = m
}

// Admissions returns the current admission verdicts, sorted by service —
// the payload of every heartbeat response.
func (r *Root) Admissions() []ServiceAdmission {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.admissions) == 0 {
		return nil
	}
	out := make([]ServiceAdmission, 0, len(r.admissions))
	for _, a := range r.admissions {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Service < out[j].Service })
	return out
}
