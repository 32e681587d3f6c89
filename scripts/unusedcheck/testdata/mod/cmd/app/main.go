package main

import (
	"fmt"

	"example.com/mod/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.Used(), s.Area())
}
