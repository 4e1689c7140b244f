// Package honeypot implements amplification honeypots in the style of
// AmpPot (Krämer et al., RAID 2015) and the attack-to-booter attribution
// of Krupp et al. (RAID 2017) — the sensing side of the booter ecosystem
// that the paper's related work builds on.
//
// A sensor emulates an abusable reflector (it answers amplification
// requests, but rate-limits responses so it is useless for real
// attacks) and logs every trigger it receives. Because booters spoof
// the victim's address, each logged "source" is a victim under attack.
// A deployment of sensors scattered into the reflector universe sees a
// slice of every booter attack whose working set includes a sensor;
// clustering events by victim and time reconstructs attacks, and
// request-payload fingerprints link them back to the booter tool that
// launched them.
package honeypot

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/booter"
	"booterscope/internal/netutil"
	"booterscope/internal/reflector"
)

// event is one logged amplification trigger.
type event struct {
	// Time the request arrived.
	Time time.Time
	// Sensor is the honeypot that logged it.
	Sensor netip.Addr
	// Victim is the spoofed source address — the attack target.
	Victim netip.Addr
	// Vector is the amplification protocol.
	Vector amplify.Vector
	// Fingerprint is the request-payload pattern (booter tools differ
	// in how they craft triggers).
	Fingerprint string
	// Responded reports whether the sensor answered (false once the
	// per-victim rate limit engaged).
	Responded bool
}

// sensor is one emulated reflector.
type sensor struct {
	Addr   netip.Addr
	Vector amplify.Vector
	// RateLimit caps responses per victim per minute; AmpPot-style
	// limiting keeps the sensor attractive to scanners but harmless in
	// attacks. Default 5.
	RateLimit int

	events []event
	minute map[minuteVictim]int
}

type minuteVictim struct {
	minute int64
	victim netip.Addr
}

// newSensor returns a sensor for one protocol.
func newSensor(addr netip.Addr, vector amplify.Vector) *sensor {
	return &sensor{
		Addr:      addr,
		Vector:    vector,
		RateLimit: 5,
		minute:    make(map[minuteVictim]int),
	}
}

// handleTrigger logs one spoofed request and reports whether the sensor
// responds (subject to the per-victim rate limit).
func (s *sensor) handleTrigger(ts time.Time, victim netip.Addr, fingerprint string) bool {
	key := minuteVictim{minute: ts.Truncate(time.Minute).Unix(), victim: victim}
	s.minute[key]++
	responded := s.minute[key] <= s.RateLimit
	s.events = append(s.events, event{
		Time:        ts,
		Sensor:      s.Addr,
		Victim:      victim,
		Vector:      s.Vector,
		Fingerprint: fingerprint,
		Responded:   responded,
	})
	return responded
}

// Events returns the sensor's log.
//
//bsvet:allow deadcode oracle: TestSensorRateLimit reads the sensor log
func (s *sensor) Events() []event { return s.events }

// Deployment is a fleet of sensors planted in the reflector universe.
type Deployment struct {
	sensors map[netip.Addr]*sensor
	rand    *netutil.Rand
}

// NewDeployment plants count sensors for a vector by adopting addresses
// from the pool's universe (booters will then draw sensors into their
// working sets like any other amplifier).
func NewDeployment(pool *reflector.Pool, count int, seed uint64) *Deployment {
	d := &Deployment{
		sensors: make(map[netip.Addr]*sensor),
		rand:    netutil.NewRand(seed).Fork("honeypot"),
	}
	ws := reflector.NewWorkingSet(pool, "honeypot-placement", count, seed)
	for _, ref := range ws.Current() {
		d.sensors[ref.Addr] = newSensor(ref.Addr, pool.Vector())
	}
	return d
}

// Size reports the number of sensors.
func (d *Deployment) Size() int { return len(d.sensors) }

// ObserveAttack records the triggers a launched attack sends to any
// sensors inside its reflector set. Booters spray each reflector with
// triggers for the attack duration; the sensor slice of that spray is
// logged with the booter tool's fingerprint.
func (d *Deployment) ObserveAttack(atk *booter.Attack, start time.Time) int {
	fingerprint := fingerprint(atk.Order.Service.Name, atk.Order.Vector)
	hits := 0
	for _, ref := range atk.Reflectors {
		sensor, ok := d.sensors[ref.Addr]
		if !ok {
			continue
		}
		hits++
		// A trigger burst every few seconds for the attack duration.
		for sec := 0; sec < atk.Seconds(); sec += 2 + d.rand.IntN(4) {
			sensor.handleTrigger(start.Add(time.Duration(sec)*time.Second), atk.Order.Target, fingerprint)
		}
	}
	return hits
}

// fingerprint derives the request-payload pattern of a booter's tool
// for one vector. Real tools differ in padding bytes, sequence
// handling, and query construction; the derived tag models that
// stable-but-distinct behaviour.
func fingerprint(booterName string, vector amplify.Vector) string {
	return fmt.Sprintf("%v/pad-%02x", vector, booterName[0])
}

// Observation is one reconstructed attack: events against a single
// victim clustered in time.
type Observation struct {
	Victim      netip.Addr
	Vector      amplify.Vector
	Start       time.Time
	End         time.Time
	Sensors     int
	Events      int
	Fingerprint string
}

// Duration is the observed attack length.
func (o Observation) Duration() time.Duration { return o.End.Sub(o.Start) }

// clusterGap is the quiet time that terminates an attack observation.
const clusterGap = 5 * time.Minute

// Reconstruct clusters all sensors' events into attack observations.
// Events for one victim with gaps below clusterGap belong to one
// attack.
func (d *Deployment) Reconstruct() []Observation {
	var all []event
	for _, s := range d.sensors {
		all = append(all, s.events...)
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].Time.Equal(all[j].Time) {
			return all[i].Time.Before(all[j].Time)
		}
		return all[i].Victim.Less(all[j].Victim)
	})

	type state struct {
		obs     Observation
		sensors map[netip.Addr]struct{}
	}
	open := make(map[netip.Addr]*state)
	var out []Observation
	flush := func(st *state) {
		st.obs.Sensors = len(st.sensors)
		out = append(out, st.obs)
	}
	for _, ev := range all {
		st, ok := open[ev.Victim]
		if ok && ev.Time.Sub(st.obs.End) > clusterGap {
			flush(st)
			ok = false
		}
		if !ok {
			st = &state{
				obs: Observation{
					Victim:      ev.Victim,
					Vector:      ev.Vector,
					Start:       ev.Time,
					End:         ev.Time,
					Fingerprint: ev.Fingerprint,
				},
				sensors: make(map[netip.Addr]struct{}),
			}
			open[ev.Victim] = st
		}
		if ev.Time.After(st.obs.End) {
			st.obs.End = ev.Time
		}
		st.obs.Events++
		st.sensors[ev.Sensor] = struct{}{}
	}
	// Flush remaining open observations, victims sorted for stable
	// output.
	victims := make([]netip.Addr, 0, len(open))
	for v := range open {
		victims = append(victims, v)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Less(victims[j]) })
	for _, v := range victims {
		flush(open[v])
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Victim.Less(out[j].Victim)
	})
	return out
}

// Attributor maps fingerprints to booter names, trained from
// self-attacks (the study's ground-truth labeling opportunity).
type Attributor struct {
	byFingerprint map[string]string
}

// NewAttributor returns an empty attributor.
func NewAttributor() *Attributor {
	return &Attributor{byFingerprint: make(map[string]string)}
}

// train registers that a fingerprint belongs to a booter (learned by
// watching a self-attack traverse the sensors).
func (a *Attributor) train(fingerprint, booterName string) {
	a.byFingerprint[fingerprint] = booterName
}

// TrainFromSelfAttack learns the fingerprint of a launched self-attack.
func (a *Attributor) TrainFromSelfAttack(atk *booter.Attack) {
	a.train(fingerprint(atk.Order.Service.Name, atk.Order.Vector), atk.Order.Service.Name)
}

// Attribute names the booter behind an observation, or "" when the
// fingerprint is unknown.
func (a *Attributor) Attribute(obs Observation) string {
	return a.byFingerprint[obs.Fingerprint]
}

// AttributionReport summarizes attribution over a set of observations.
type AttributionReport struct {
	Total      int
	Attributed int
	ByBooter   map[string]int
}

// Rate is the attributed fraction.
func (r AttributionReport) Rate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Attributed) / float64(r.Total)
}

// Report attributes every observation.
func (a *Attributor) Report(observations []Observation) AttributionReport {
	rep := AttributionReport{ByBooter: make(map[string]int)}
	for _, obs := range observations {
		rep.Total++
		if name := a.Attribute(obs); name != "" {
			rep.Attributed++
			rep.ByBooter[name]++
		}
	}
	return rep
}
