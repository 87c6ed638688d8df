// Command archmod is the caller the export rule's cases need.
package main

import (
	"container/heap"
	"fmt"

	"archmod/a"
)

func main() {
	h := &a.Heap{}
	heap.Push(h, 1)
	b, err := a.Encode()
	fmt.Println(string(b), err)
}
