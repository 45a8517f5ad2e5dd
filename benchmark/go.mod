module fastbfs/benchmark

go 1.22

require fastbfs v0.0.0

replace fastbfs => ../
