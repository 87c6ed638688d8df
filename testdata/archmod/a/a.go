// Package a holds one case each for the export rule.
package a

import "encoding/json"

// Unused has no caller at all: the rule reports it.
func Unused() {}

// TestOnly is called only by a_test.go: the rule reports it.
func TestOnly() int { return 1 }

// Heap's methods are called only by container/heap, through heap.Interface.
type Heap []int

func (h Heap) Len() int           { return len(h) }
func (h Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *Heap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *Heap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Doc's field is read only by encoding/json.
type Doc struct {
	Name string `json:"name"`
}

// Encode marshals an empty Doc.
func Encode() ([]byte, error) { return json.Marshal(new(Doc)) }
