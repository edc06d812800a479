package stats

import "testing"

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean should be 0")
	}
	m.Observe(2)
	m.Observe(4)
	if m.Value() != 3 {
		t.Fatalf("mean = %g, want 3", m.Value())
	}
	if m.Count() != 2 || m.Sum() != 6 {
		t.Fatal("count/sum wrong")
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	r.Hit()
	r.Hit()
	r.Miss()
	r.Hit()
	if got := r.Value(); got != 0.75 {
		t.Fatalf("ratio = %g, want 0.75", got)
	}
	if r.Hits() != 3 || r.Total() != 4 {
		t.Fatal("hits/total wrong")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	if h.Bucket(0) != 1 || h.Bucket(1) != 1 || h.Bucket(2) != 1 {
		t.Fatal("bucket placement wrong")
	}
	if h.Count() != 3 {
		t.Fatal("count wrong")
	}
	want := (5.0 + 50 + 500) / 3
	if h.Mean() != want {
		t.Fatalf("mean = %g, want %g", h.Mean(), want)
	}
}
