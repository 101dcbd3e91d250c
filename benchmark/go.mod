module gemmec/benchmark

go 1.22

require gemmec v0.0.0

replace gemmec => ../
