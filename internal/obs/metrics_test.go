package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v, want 1", got)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	// Bounds are inclusive: 0.5 and 1 -> le 1; 2 and 10 -> le 10;
	// 11 -> le 100; 1000 -> overflow.
	want := []uint64{2, 2, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
	if got := h.buckets[3].Load(); got != 1 {
		t.Errorf("overflow = %d, want 1", got)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 0.5+1+2+10+11+1000 {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalFloats(exp, want) {
		t.Errorf("ExpBuckets = %v, want %v", exp, want)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("x", []float64{1}) != r.Histogram("x", []float64{2, 3}) {
		t.Error("Histogram not idempotent")
	}
	r.Reset()
	if got := r.Counter("x").Value(); got != 0 {
		t.Errorf("after reset counter = %d, want fresh 0", got)
	}
}

// TestConcurrentHammer drives every metric type from many goroutines; run
// under -race this is the package's concurrency proof, and the totals
// double-check that no increment was lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hammer.count")
			g := r.Gauge("hammer.gauge")
			h := r.Histogram("hammer.hist", ExpBuckets(1, 2, 10))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 7))
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent readers must be safe too
				}
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	if got := r.Counter("hammer.count").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.Gauge("hammer.gauge").Value(); got != total {
		t.Errorf("gauge = %v, want %d", got, total)
	}
	h := r.Histogram("hammer.hist", nil)
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	var bucketSum uint64
	for i := range h.buckets {
		bucketSum += h.buckets[i].Load()
	}
	if bucketSum != total {
		t.Errorf("bucket sum = %d, want %d", bucketSum, total)
	}
}

// TestMergeMatchesObserve proves the unit path — Pow2Bucket into plain
// counts, then one Merge — lands every value in the same bucket, count
// and sum as the histogram's atomic Observe.
func TestMergeMatchesObserve(t *testing.T) {
	const n = 10
	direct := NewHistogram(ExpBuckets(1, 2, n))
	merged := NewHistogram(ExpBuckets(1, 2, n))
	counts := make([]uint64, n+1)
	var sum uint64
	for v := uint64(0); v <= 1030; v++ {
		direct.Observe(float64(v))
		counts[Pow2Bucket(v, n)]++
		sum += v
	}
	merged.Merge(counts, float64(sum))
	merged.Merge(make([]uint64, n+1), 0) // an empty unit changes nothing
	for i := range direct.buckets {
		if got, want := merged.buckets[i].Load(), direct.buckets[i].Load(); got != want {
			t.Errorf("bucket[%d] = %d, want %d", i, got, want)
		}
	}
	if direct.Count() != merged.Count() || direct.Sum() != merged.Sum() {
		t.Errorf("count/sum = %d/%v, want %d/%v",
			merged.Count(), merged.Sum(), direct.Count(), direct.Sum())
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Counter("a.count").Add(1)
	r.Gauge("rate").Set(0.25)
	r.Histogram("steps", []float64{1, 10}).Observe(5)
	got := r.Snapshot().Text()
	want := strings.Join([]string{
		"counter a.count 1",
		"counter b.count 3",
		"gauge rate 0.25",
		"histogram steps count=1 sum=5",
		"  le 1 0",
		"  le 10 1",
		"  overflow 0",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Text() drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs").Add(7)
	r.Histogram("steps", []float64{2}).Observe(1)
	raw, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 7 {
		t.Errorf("round-tripped counters = %+v", back.Counters)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 1 {
		t.Errorf("round-tripped histograms = %+v", back.Histograms)
	}
}
