program main
  integer i, j
  do 30 j = 1, 8
    i = 0
10  goto 20
20  i = i + 1
    if (i .lt. j) goto 10
30 continue
  print i
end
