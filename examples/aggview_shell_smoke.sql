select e.dno, count(*) from emp e where e.sal > 100 group by e.dno;
\traditional
select e.dno, count(*) from emp e where e.sal > 100 group by e.dno;
create materialized view dsal (dno, total, cnt) as select e.dno, sum(e.sal), count(*) from emp e group by e.dno;
explain analyze select e.dno, sum(e.sal) from emp e group by e.dno;
\quit
