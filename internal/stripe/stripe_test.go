package stripe

import (
	"testing"
)

func TestNewBufferValidation(t *testing.T) {
	if _, err := NewBuffer(0, 16); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewBuffer(3, 0); err == nil {
		t.Error("unit=0 accepted")
	}
}

func TestPoolReuse(t *testing.T) {
	p, err := NewPool(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b1.Raw()); got != 16 {
		t.Errorf("buffer holds %d bytes, want k*unit = 16", got)
	}
	if err := p.Put(b1); err != nil {
		t.Fatal(err)
	}
	b2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b1 {
		t.Error("pool did not reuse the released buffer")
	}
	if p.Allocated() != 1 {
		t.Errorf("Allocated=%d want 1", p.Allocated())
	}
	if _, err := p.Get(); err != nil {
		t.Fatal(err)
	}
	if p.Allocated() != 2 {
		t.Errorf("Allocated=%d want 2", p.Allocated())
	}

	foreign, _ := NewBuffer(3, 8)
	if err := p.Put(foreign); err == nil {
		t.Error("foreign buffer accepted")
	}
	if _, err := NewPool(0, 8); err == nil {
		t.Error("invalid pool accepted")
	}
}
