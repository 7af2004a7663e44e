program main
  integer i, s
  s = 0
  do 10 i = 1, 40
    if (mod(i, 3) .eq. 0) s = s + i
    call work(i, s)
10 continue
  print s
end

subroutine work(n, s)
  integer n, s, j
  j = 0
20 j = j + 1
  s = s + j
  if (j .lt. mod(n, 5)) goto 20
end

subroutine spare(s)
  integer s, k
  do 30 k = 1, 8
    if (s .gt. 100) s = s - 1
30 continue
end
