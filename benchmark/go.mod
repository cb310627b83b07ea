module gpar/benchmark

go 1.24

require gpar v0.0.0

replace gpar => ../
