// Package booterdb models the leaked operational databases of booter
// services and the analyses the measurement community runs on them
// (Karami & McCoy's "Rent to Pwn", Santanna et al.'s "Inside Booters" —
// the paper's refs [10], [21], [24]): customers, payments, and attack
// logs, with generators for synthetic leaks and the standard analyses
// on top.
//
// Databases round-trip through CSV, the format real leaks circulate in.
package booterdb

import (
	"encoding/csv"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/booter"
	"booterscope/internal/netutil"
)

// User is one registered customer.
type User struct {
	ID         int
	Username   string
	Registered time.Time
	Country    string
}

// paymentMethod is how a subscription was paid.
type paymentMethod uint8

// Payment methods seen in leaked databases.
const (
	PayPal paymentMethod = iota
	Bitcoin
	GiftCard
)

// String returns the method name.
func (m paymentMethod) String() string {
	switch m {
	case PayPal:
		return "paypal"
	case Bitcoin:
		return "bitcoin"
	case GiftCard:
		return "giftcard"
	default:
		return fmt.Sprintf("PaymentMethod(%d)", uint8(m))
	}
}

// parsePaymentMethod inverts String.
//
//bsvet:allow deadcode no production caller; kept for TestPaymentMethodStrings (deletion deferred, ROADMAP 8(iv))
func parsePaymentMethod(s string) (paymentMethod, error) {
	switch s {
	case "paypal":
		return PayPal, nil
	case "bitcoin":
		return Bitcoin, nil
	case "giftcard":
		return GiftCard, nil
	default:
		return 0, fmt.Errorf("booterdb: unknown payment method %q", s)
	}
}

// payment is one subscription purchase.
type payment struct {
	ID     int
	UserID int
	Amount float64
	Method paymentMethod
	Time   time.Time
}

// AttackLog is one launched attack, as booter panels record them.
type AttackLog struct {
	ID       int
	UserID   int
	Target   netip.Addr
	Vector   amplify.Vector
	Duration time.Duration
	Time     time.Time
}

// Database is one booter's leaked backend.
type Database struct {
	Booter   string
	Users    []User
	Payments []payment
	Attacks  []AttackLog
}

// GenerateConfig tunes a synthetic leak.
type GenerateConfig struct {
	// Start and Days bound the operational window.
	Start time.Time
	Days  int
	// Users is the customer count. Default 1500.
	Users int
	// Seed drives randomness.
	Seed uint64
}

// Generate synthesizes a leak for one booter service, following the
// distributions the leak studies report: a heavy-tailed attacks-per-user
// distribution (a few power users launch most attacks), repeat victims,
// PayPal-dominated payments, and subscription renewals.
func Generate(svc *booter.Service, cfg GenerateConfig) *Database {
	if cfg.Users == 0 {
		cfg.Users = 1500
	}
	r := netutil.NewRand(cfg.Seed).Fork("booterdb-" + svc.Name)
	db := &Database{Booter: svc.Name}
	countries := []string{"US", "GB", "DE", "NL", "BR", "FR", "RU", "CA"}
	vectors := svc.Vectors()

	// A shared victim pool creates repeat targets (gamers, schools,
	// rival servers — the leak studies' victim profile).
	victims := make([]netip.Addr, 400)
	for i := range victims {
		victims[i] = netutil.Addr4(uint32(11+r.IntN(200))<<24 | r.Uint32N(1<<24))
	}

	paymentID, attackID := 0, 0
	for id := 0; id < cfg.Users; id++ {
		regDay := r.IntN(cfg.Days)
		user := User{
			ID:         id,
			Username:   fmt.Sprintf("user%04d", id),
			Registered: cfg.Start.AddDate(0, 0, regDay),
			Country:    countries[r.IntN(len(countries))],
		}
		db.Users = append(db.Users, user)

		// Payments: an initial subscription, some users renew monthly.
		subs := 1 + r.IntN(3)
		vip := r.Float64() < 0.06
		for sIdx := 0; sIdx < subs; sIdx++ {
			amount := svc.PriceNonVIP
			if vip {
				amount = svc.PriceVIP
			}
			method := PayPal
			switch u := r.Float64(); {
			case u < 0.25:
				method = Bitcoin
			case u < 0.32:
				method = GiftCard
			}
			db.Payments = append(db.Payments, payment{
				ID:     paymentID,
				UserID: id,
				Amount: amount,
				Method: method,
				Time:   user.Registered.AddDate(0, sIdx, 0).Add(time.Duration(r.IntN(86400)) * time.Second),
			})
			paymentID++
		}

		// Attacks: heavy-tailed per-user counts.
		attacks := int(r.Pareto(1.2, 1.1))
		if attacks > 400 {
			attacks = 400
		}
		for a := 0; a < attacks; a++ {
			target := victims[r.IntN(len(victims))]
			if r.Float64() < 0.3 {
				target = netutil.Addr4(uint32(11+r.IntN(200))<<24 | r.Uint32N(1<<24))
			}
			day := regDay + r.IntN(cfg.Days-regDay)
			db.Attacks = append(db.Attacks, AttackLog{
				ID:       attackID,
				UserID:   id,
				Target:   target,
				Vector:   vectors[r.IntN(len(vectors))],
				Duration: time.Duration(30+r.IntN(570)) * time.Second,
				Time:     cfg.Start.AddDate(0, 0, day).Add(time.Duration(r.IntN(86400)) * time.Second),
			})
			attackID++
		}
	}
	return db
}

// TargetCount pairs a victim with its attack count.
type TargetCount struct {
	Target netip.Addr
	Count  int
}

// TopTargets returns the n most-attacked victims, busiest first.
func (db *Database) TopTargets(n int) []TargetCount {
	counts := make(map[netip.Addr]int)
	for _, a := range db.Attacks {
		counts[a.Target]++
	}
	out := make([]TargetCount, 0, len(counts))
	for t, c := range counts {
		out = append(out, TargetCount{t, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Target.Less(out[j].Target)
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// attacksPerUser returns each user's attack count, heaviest first.
func (db *Database) attacksPerUser() []int {
	counts := make(map[int]int)
	for _, a := range db.Attacks {
		counts[a.UserID]++
	}
	out := make([]int, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// PowerUserShare returns the fraction of attacks launched by the top
// fraction of attacking users — the leak studies' "a few power users
// dominate" observation.
func (db *Database) PowerUserShare(topFrac float64) float64 {
	counts := db.attacksPerUser()
	if len(counts) == 0 {
		return 0
	}
	topN := int(float64(len(counts)) * topFrac)
	if topN < 1 {
		topN = 1
	}
	var top, total int
	for i, c := range counts {
		total += c
		if i < topN {
			top += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// RevenueByMethod sums payments per method.
//
//bsvet:allow deadcode no production caller; kept for TestRevenue (deletion deferred, ROADMAP 8(iv))
func (db *Database) RevenueByMethod() map[paymentMethod]float64 {
	out := make(map[paymentMethod]float64)
	for _, p := range db.Payments {
		out[p.Method] += p.Amount
	}
	return out
}

// TotalRevenue sums all payments.
func (db *Database) TotalRevenue() float64 {
	var total float64
	for _, p := range db.Payments {
		total += p.Amount
	}
	return total
}

// VectorUsage counts attacks per vector.
//
//bsvet:allow deadcode no production caller; kept for TestVectorUsage (deletion deferred, ROADMAP 8(iv))
func (db *Database) VectorUsage() map[amplify.Vector]int {
	out := make(map[amplify.Vector]int)
	for _, a := range db.Attacks {
		out[a.Vector]++
	}
	return out
}

// VictimOverlap returns how many victims two leaks share — the
// cross-booter victimization studied by Noroozian et al.
//
//bsvet:allow deadcode no production caller; kept for TestVictimOverlap (deletion deferred, ROADMAP 8(iv))
func VictimOverlap(a, b *Database) int {
	inA := make(map[netip.Addr]bool)
	for _, atk := range a.Attacks {
		inA[atk.Target] = true
	}
	seen := make(map[netip.Addr]bool)
	shared := 0
	for _, atk := range b.Attacks {
		if inA[atk.Target] && !seen[atk.Target] {
			seen[atk.Target] = true
			shared++
		}
	}
	return shared
}

// WriteCSV dumps the attack log table in the column layout leaks use.
//
//bsvet:allow deadcode no production caller; kept for TestCSVRoundTrip (deletion deferred, ROADMAP 8(iv))
func (db *Database) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "user_id", "target", "vector", "duration_s", "time"}); err != nil {
		return fmt.Errorf("booterdb: writing header: %w", err)
	}
	for _, a := range db.Attacks {
		rec := []string{
			strconv.Itoa(a.ID),
			strconv.Itoa(a.UserID),
			a.Target.String(),
			a.Vector.String(),
			strconv.Itoa(int(a.Duration / time.Second)),
			a.Time.UTC().Format(time.RFC3339),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("booterdb: writing row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses an attack log table written by WriteCSV.
//
//bsvet:allow deadcode no production caller; kept for TestCSVRoundTrip and TestReadCSVErrors (deletion deferred, ROADMAP 8(iv))
func ReadCSV(r io.Reader) ([]AttackLog, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("booterdb: reading header: %w", err)
	}
	if len(header) != 6 || header[0] != "id" {
		return nil, fmt.Errorf("booterdb: unexpected header %v", header)
	}
	var out []AttackLog
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("booterdb: reading row: %w", err)
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("booterdb: bad id %q: %w", rec[0], err)
		}
		userID, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("booterdb: bad user id %q: %w", rec[1], err)
		}
		target, err := netip.ParseAddr(rec[2])
		if err != nil {
			return nil, fmt.Errorf("booterdb: bad target %q: %w", rec[2], err)
		}
		vector, err := parseVector(rec[3])
		if err != nil {
			return nil, err
		}
		durS, err := strconv.Atoi(rec[4])
		if err != nil {
			return nil, fmt.Errorf("booterdb: bad duration %q: %w", rec[4], err)
		}
		ts, err := time.Parse(time.RFC3339, rec[5])
		if err != nil {
			return nil, fmt.Errorf("booterdb: bad time %q: %w", rec[5], err)
		}
		out = append(out, AttackLog{
			ID:       id,
			UserID:   userID,
			Target:   target,
			Vector:   vector,
			Duration: time.Duration(durS) * time.Second,
			Time:     ts,
		})
	}
}

// parseVector inverts amplify.Vector.String.
func parseVector(s string) (amplify.Vector, error) {
	for _, v := range []amplify.Vector{amplify.NTP, amplify.DNS, amplify.CLDAP, amplify.Memcached, amplify.SSDP, amplify.Chargen} {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("booterdb: unknown vector %q", s)
}

// FromHistory builds a leak database from a panel's backend attack log
// — what investigators obtain when they seize the service's
// infrastructure rather than just its domain.
//
//bsvet:allow deadcode no production caller; kept for TestFromHistory (deletion deferred, ROADMAP 8(iv))
func FromHistory(booterName string, history []booter.HistoryEntry) *Database {
	db := &Database{Booter: booterName}
	users := make(map[int]bool)
	for i, h := range history {
		if !users[h.UserID] {
			users[h.UserID] = true
			db.Users = append(db.Users, User{
				ID:         h.UserID,
				Username:   fmt.Sprintf("user%04d", h.UserID),
				Registered: h.Time,
			})
		}
		db.Attacks = append(db.Attacks, AttackLog{
			ID:       i,
			UserID:   h.UserID,
			Target:   h.Target,
			Vector:   h.Vector,
			Duration: h.Duration,
			Time:     h.Time,
		})
	}
	return db
}
