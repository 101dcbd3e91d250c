package tuned

import "testing"

// TestRegistrySharesPerGeometry: one code and one pool per geometry.
func TestRegistrySharesPerGeometry(t *testing.T) {
	r := NewRegistry(Config{})
	c1, err := r.StreamCode(4, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.StreamCode(4, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("same geometry returned distinct codes")
	}
	p1, err := r.StreamPool(4, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.StreamPool(4, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same geometry returned distinct pools")
	}
	other, err := r.StreamCode(3, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	if other == c1 {
		t.Error("distinct geometries share a code")
	}
}
