module stz/benchmark

go 1.24

require stz v0.0.0

replace stz => ../
