module snowboard

go 1.23
