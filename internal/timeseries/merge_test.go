package timeseries

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Merging per-shard series must reproduce a serial pass exactly, in
// any merge order — the property the sharded pipeline rests on.
func TestSeriesMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	serial := NewDaily()
	shards := []*Series{NewDaily(), NewDaily(), NewDaily()}
	for i := 0; i < 5000; i++ {
		ts := base.Add(time.Duration(rng.Intn(60*24*60)) * time.Minute)
		v := float64(rng.Intn(1000))
		serial.Add(ts, v)
		shards[rng.Intn(len(shards))].Add(ts, v)
	}
	merged := NewDaily()
	// Reverse order on purpose: merge must be order-independent.
	for i := len(shards) - 1; i >= 0; i-- {
		merged.Merge(shards[i])
	}
	if !reflect.DeepEqual(merged.Points(), serial.Points()) {
		t.Fatal("merged shard series differ from serial series")
	}
}

func TestSeriesMergeRejectsBinSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging hourly into daily did not panic")
		}
	}()
	NewDaily().Merge(newSeries(time.Hour))
}
